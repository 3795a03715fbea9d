(* The repository benchmark: run one named workload for a fixed host-time
   budget and print its metrics.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   A run repeats the workload (a fresh, cold instance each time) until
   [--seconds] have passed and reports medians over the repetitions.
   Untraced ([--trace 0]) it prints the end-to-end metrics; traced
   ([--trace 1]) it alternates untraced and traced repetitions and prints
   the per-layer metrics, the tracing overhead among them, and writes the
   spans to perfbench/_trace/.  Every repetition's output is checked; the
   last line of standard output is one JSON object, and the exit code is
   non-zero when any check failed.  See perfbench/README.md. *)

let end_to_end =
  [
    ("run_s", "s");
    ("setup_s", "s");
    ("work_per_s", "1/s");
    ("peak_heap_mb", "MB");
    ("sim_ms", "sim_ms");
  ]

let per_layer =
  [
    ("engine.events", "count");
    ("engine.host_ns_per_event", "ns");
    ("engine.hold_events_per_s", "1/s");
    ("kernel.self_s", "s");
    ("kernel.coalesced_words", "count");
    ("kernel.fallbacks", "count");
    ("kernel.coalesce_ratio", "ratio");
    ("kernel.context_switches", "count");
    ("memsys.submit_calls", "count");
    ("memsys.submit_s", "s");
    ("memsys.ns_per_submit", "ns");
    ("memsys.hit_s", "s");
    ("fastpath.op_calls", "count");
    ("fastpath.op_s", "s");
    ("machine.module_requests", "count");
    ("machine.module_wait_sim_ns", "sim_ns");
    ("machine.max_module_util", "ratio");
    ("machine.ipis", "count");
    ("coherent.fault_s", "s");
    ("coherent.faults", "count");
    ("coherent.us_per_fault", "us");
    ("coherent.replications", "count");
    ("coherent.migrations", "count");
    ("coherent.remote_maps", "count");
    ("coherent.freezes", "count");
    ("coherent.thaws", "count");
    ("coherent.shootdowns", "count");
    ("coherent.interrupts", "count");
    ("coherent.fault_sim_ns", "sim_ns");
    ("coherent.copy_sim_ns", "sim_ns");
    ("flat.find_ns", "ns");
    ("flat.set_ns", "ns");
    ("shard.windows", "count");
    ("shard.events_per_window", "count");
    ("shard.us_per_window", "us");
    ("shard.replications", "count");
    ("shard.invalidations", "count");
    ("shard.ipis", "count");
    ("shard.retries", "count");
  ]
  @ List.concat_map
      (fun t ->
        let k m = Printf.sprintf "serve.%s.%s" t m in
        [
          (k "requests_per_s", "1/s");
          (k "p50_sim_us", "sim_us");
          (k "p99_sim_us", "sim_us");
          (k "p999_sim_us", "sim_us");
          (k "retries", "count");
        ])
      [ "ring"; "rpc"; "frozen" ]
  @ [
      ("serve.p50_sim_us", "sim_us");
      ("serve.p99_sim_us", "sim_us");
      ("serve.hist_record_ns", "ns");
      ("trace.run_s", "s");
      ("trace.overhead_s", "s");
    ]

(* --- statistics --- *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= Array.length a then a.(i) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* --- host-side micro-benchmarks (traced runs only) --- *)

(* Median of five timed passes of [f], in ns per operation. *)
let ns_per_op ~ops f =
  let pass () =
    let t0 = Trace.now_ns () in
    f ();
    float_of_int (Trace.now_ns () - t0) /. float_of_int ops
  in
  median (List.init 5 (fun _ -> pass ()))

(* The hold model: 1024 pending events; each one fired schedules the next
   at a pseudo-random delay, so the queue size stays constant. *)
let engine_hold_events_per_s () =
  let steps = 500_000 in
  let ns =
    ns_per_op ~ops:steps (fun () ->
        let e = Platinum_sim.Engine.create () in
        let x = ref 12345 in
        let rec fire () =
          x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
          Platinum_sim.Engine.schedule_after e ~delay:(1 + (!x land 0xFFFF)) fire
        in
        for _ = 1 to 1024 do
          fire ()
        done;
        for _ = 1 to steps do
          ignore (Platinum_sim.Engine.step e)
        done)
  in
  1e9 /. ns

(* Lookups and stores on a Flat table holding a gauss-fig1-sized footprint:
   one page per matrix row (400) plus the synchronization pages. *)
let flat_ns () =
  let module Flat = Platinum_core.Flat in
  let keys = Array.init 402 (fun i -> 16 + i) in
  let tbl = Flat.create () in
  Array.iter (fun k -> Flat.set tbl k k) keys;
  let rounds = 5_000 in
  let ops = rounds * Array.length keys in
  let find =
    ns_per_op ~ops (fun () ->
        let hits = ref 0 in
        for _ = 1 to rounds do
          Array.iter (fun k -> match Flat.find tbl k with Some _ -> incr hits | None -> ()) keys
        done;
        ignore (Sys.opaque_identity !hits))
  in
  let set =
    ns_per_op ~ops (fun () ->
        for r = 1 to rounds do
          Array.iter (fun k -> Flat.set tbl k r) keys
        done)
  in
  (find, set)

let hist_record_ns () =
  let module Hist = Platinum_stats.Hist in
  let ops = 2_000_000 in
  ns_per_op ~ops (fun () ->
      let h = Hist.create () in
      let x = ref 1 in
      for _ = 1 to ops do
        x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
        Hist.record h (1_000 + (!x land 0xFFFFF))
      done)

(* --- the run --- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: gauss-fig1 stencil-perword hosted-jacobi256 serve-open";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := v;
      go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      go rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match List.assoc_opt !workload Work.all with
  | Some make -> (make, !seed, !seconds, !trace)
  | None -> usage ()

let setup_only_samples = 51

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let make, seed, seconds, trace = parse_args () in
  let w : Work.t = make ~seed in
  let t_start = Trace.now_ns () in
  let setup = ref [] in
  Option.iter
    (fun f ->
      for _ = 1 to setup_only_samples do
        Gc.full_major ();
        setup := f () :: !setup
      done)
    w.Work.setup_only;
  (* Repetitions until the budget is spent.  Traced, even repetitions run
     untraced (the overhead baseline) and odd ones traced. *)
  let plain = ref [] and traced = ref [] in
  let checks = ref 0 and failures = ref [] and witness = ref None in
  (* The heap's high-water mark after the first repetition: later ones
     can raise it through fragmentation, and their number depends on the
     host's speed. *)
  let peak_heap_mb = ref 0.0 in
  let fail msg = failures := msg :: !failures in
  let elapsed () = float_of_int (Trace.now_ns () - t_start) /. 1e9 in
  let i = ref 0 in
  let continue () =
    !failures = []
    && (elapsed () < seconds || !plain = [] || (trace && !traced = []))
  in
  while continue () do
    let tracing = trace && !i land 1 = 1 in
    Trace.enabled := tracing;
    Gc.full_major ();
    (match
       Trace.with_span (Printf.sprintf "rep %d" !i) (fun id -> w.Work.run ~parent:id)
     with
    | r ->
      checks := !checks + r.Work.checks + 1;
      List.iter fail r.Work.failures;
      (match !witness with
      | None -> witness := Some r.Work.witness
      | Some w0 ->
        if w0 <> r.Work.witness then
          fail (Printf.sprintf "rep %d: simulated outputs differ from rep 0" !i));
      Option.iter (fun s -> setup := s :: !setup) r.Work.setup_s;
      if !peak_heap_mb = 0.0 then
        peak_heap_mb :=
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
      if tracing then traced := r :: !traced else plain := r :: !plain
    | exception e ->
      incr checks;
      fail (Printf.sprintf "rep %d raised %s" !i (Printexc.to_string e)));
    Trace.enabled := false;
    incr i
  done;
  let plain = List.rev !plain and traced = List.rev !traced in
  let failures = List.rev !failures in
  let reps = List.length plain + List.length traced in
  Printf.printf "workload %s  seed %d  reps %d (%d traced)  checks %d  failed %d\n" w.Work.name
    seed reps (List.length traced) !checks (List.length failures);
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) failures;
  let run_s = List.map (fun r -> r.Work.run_s) plain in
  Printf.printf "  run_s per rep: %s\n" (String.concat " " (List.map (Printf.sprintf "%.4f") run_s));
  let show name unit xs =
    Printf.printf "  %-28s %14.6g %-7s (p25 %.6g, p75 %.6g, n=%d)\n" name (median xs) unit
      (quantile xs 0.25) (quantile xs 0.75) (List.length xs)
  in
  (match !witness with
  | Some wit ->
    Printf.printf "witness {%s}\n"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (Trace.json_string k) (Trace.json_string v)) wit))
  | None -> ());
  let metrics =
    if not trace then begin
      let work_per_s =
        List.map (fun r -> float_of_int r.Work.work /. r.Work.run_s) plain
      in
      let sim_ms = match plain with r :: _ -> float_of_int r.Work.sim_ns /. 1e6 | [] -> 0.0 in
      let peak_heap_mb = !peak_heap_mb in
      show "run_s" "s" run_s;
      show "setup_s" "s" !setup;
      show "work_per_s" "1/s" work_per_s;
      show (w.Work.work_unit ^ "_per_s") "1/s" work_per_s;
      Printf.printf "  %-28s %14.6g %-7s\n" "peak_heap_mb" peak_heap_mb "MB";
      Printf.printf "  %-28s %14.6f %-7s\n" "sim_ms" sim_ms "sim_ms";
      Printf.printf "  %-28s %14.6g %-7s\n" "fail_ratio"
        (float_of_int (List.length failures) /. float_of_int (max 1 !checks))
        "ratio";
      (match plain with
      | r :: _ ->
        List.iter
          (fun k ->
            Option.iter
              (fun v -> Printf.printf "  %-28s %14.6g %-7s\n" k v "sim_us")
              (List.assoc_opt ("serve." ^ k) r.Work.layers))
          [ "p50_sim_us"; "p99_sim_us" ]
      | [] -> ());
      [
        ("run_s", median run_s);
        ("setup_s", median !setup);
        ("work_per_s", median work_per_s);
        ("peak_heap_mb", peak_heap_mb);
        ("sim_ms", sim_ms);
      ]
    end
    else begin
      let layer name =
        median
          (List.filter_map (fun r -> List.assoc_opt name r.Work.layers) traced)
      in
      let find_ns, set_ns = flat_ns () in
      let traced_run_s = median (List.map (fun r -> r.Work.run_s) traced) in
      let micro =
        [
          ("engine.hold_events_per_s", engine_hold_events_per_s ());
          ("flat.find_ns", find_ns);
          ("flat.set_ns", set_ns);
          ("serve.hist_record_ns", hist_record_ns ());
          ("trace.run_s", traced_run_s);
          ("trace.overhead_s", traced_run_s -. median run_s);
        ]
      in
      let values =
        List.map
          (fun (name, _) ->
            match List.assoc_opt name micro with
            | Some v -> (name, v)
            | None -> (name, layer name))
          per_layer
      in
      List.iter2
        (fun (name, v) (_, unit) -> Printf.printf "  %-28s %14.6g %s\n" name v unit)
        values per_layer;
      Printf.printf "split: kernel.coalesce_ratio %.3g, memsys.submit_s / trace.run_s %.3g\n"
        (List.assoc "kernel.coalesce_ratio" values)
        (List.assoc "memsys.submit_s" values /. traced_run_s);
      let dir = Filename.concat "perfbench" "_trace" in
      (try
         if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
         let path = Filename.concat dir (Printf.sprintf "%s-seed%d.json" w.Work.name seed) in
         Trace.write_file path;
         Printf.printf "spans written to %s\n" path
       with Sys_error e -> Printf.printf "spans not written: %s\n" e);
      values
    end
  in
  let units = if trace then per_layer else end_to_end in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failures = []) (max 1 !checks) (List.length failures)
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Trace.json_string name)
              (json_number v)
              (Trace.json_string (List.assoc name units)))
          metrics));
  if failures <> [] then exit 1
