(* In-memory tracing for the benchmark: spans around the calls the
   benchmark makes into each layer, and per-call boundary counters for the
   hot boundaries (Memsys.submit, the fast-path ops) where a span per call
   would swamp memory.

   Everything here is recorded from outside lib/: the benchmark times the
   public functions it calls and wraps the records it hands to the kernel.
   Spans are kept in memory and written out once, at exit. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* What one clock read adds to an interval timed with two of them: the
   median of back-to-back reads. *)
let clock_cost_ns =
  let d =
    Array.init 10_001 (fun _ ->
        let a = now_ns () in
        now_ns () - a)
  in
  Array.sort compare d;
  d.(5_000)

(* Nanoseconds since [t0], net of the clock's own cost. *)
let since t0 = max 0 (now_ns () - t0 - clock_cost_ns)

let enabled = ref false

(* --- spans --- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  start_ns : int;
  mutable end_ns : int;
}

let spans : span list ref = ref []
let next_id = ref 0

(* [with_span ~parent name f] runs [f id] and, when tracing is on, records
   a span [name] covering it.  [id] is the new span's id (pass it as the
   [parent] of nested spans); it is -1 when tracing is off. *)
let with_span ?(parent = -1) name f =
  if not !enabled then f (-1)
  else begin
    let id = !next_id in
    incr next_id;
    let sp = { id; name; parent; start_ns = now_ns (); end_ns = 0 } in
    spans := sp :: !spans;
    Fun.protect ~finally:(fun () -> sp.end_ns <- now_ns ()) (fun () -> f id)
  end

(* --- per-call boundaries --- *)

type boundary = {
  b_name : string;
  mutable calls : int;
  mutable ns : int;
}

let boundary b_name = { b_name; calls = 0; ns = 0 }

let[@inline] tick b dt =
  b.calls <- b.calls + 1;
  b.ns <- b.ns + dt

(* Boundary totals per traced span (the span the calls happened under). *)
let boundary_log : (int * boundary) list ref = ref []

let log_boundaries ~span bs =
  if !enabled then List.iter (fun b -> boundary_log := (span, b) :: !boundary_log) bs

(* --- derived: self time --- *)

let duration sp = sp.end_ns - sp.start_ns

(* A span's self time: its duration minus what its child spans and the
   boundary calls made directly under it cover. *)
let self_ns sp =
  let children =
    List.fold_left
      (fun acc c -> if c.parent = sp.id then acc + duration c else acc)
      0 !spans
  in
  let calls =
    List.fold_left (fun acc (s, b) -> if s = sp.id then acc + b.ns else acc) 0 !boundary_log
  in
  duration sp - children - calls

(* --- output --- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Write every span (oldest first) and every boundary total as one JSON
   document; times are nanoseconds of the monotonic clock. *)
let write_file path =
  let oc = open_out path in
  let spans = List.rev !spans in
  let t0 = match spans with [] -> 0 | s :: _ -> s.start_ns in
  output_string oc "{\"spans\": [\n";
  List.iteri
    (fun i sp ->
      Printf.fprintf oc
        "%s  {\"id\": %d, \"name\": %s, \"parent\": %d, \"start_ns\": %d, \"end_ns\": %d, \
         \"self_ns\": %d}"
        (if i = 0 then "" else ",\n")
        sp.id (json_string sp.name) sp.parent (sp.start_ns - t0) (sp.end_ns - t0) (self_ns sp))
    spans;
  output_string oc "\n],\n\"boundaries\": [\n";
  List.iteri
    (fun i (span, b) ->
      Printf.fprintf oc "%s  {\"span\": %d, \"name\": %s, \"calls\": %d, \"ns\": %d}"
        (if i = 0 then "" else ",\n")
        span (json_string b.b_name) b.calls b.ns)
    (List.rev !boundary_log);
  output_string oc "\n]}\n";
  close_out oc
