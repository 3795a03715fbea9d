(* Tests for caller-owned block-transfer buffers (DESIGN.md §4a).

   A block descriptor names the buffer its data moves through:
   [Api.block_read_into ~dst ~dst_off] fills part of an array the caller
   owns, [Api.block_write_from ~src ~src_off] writes part of one.  The
   contract: the simulated machine cannot tell the two apart from the
   allocating [Api.block_read]/[Api.block_write] of the same range — same
   values, same elapsed time, same Counters, same memory-module
   bookkeeping — on every backend.  A malformed buffer range raises
   [Invalid_argument] in the calling thread before anything is charged,
   and a transfer into a resident row allocates no major-heap words. *)

module Api = Platinum_kernel.Api
module Runner = Platinum_runner.Runner
module Config = Platinum_machine.Config
module Cache = Platinum_machine.Cache
module Uma_sys = Platinum_cache.Uma_sys
module Policy = Platinum_core.Policy
module Gauss = Platinum_workload.Gauss

let qtest = QCheck_alcotest.to_alcotest

(* --- backends --- *)

let page_words = 64
let buf_pages = 3
let buf_words = buf_pages * page_words

type backend = Platinum | Static_place | Uniform_system | Uma

let backend_name = function
  | Platinum -> "PLATINUM"
  | Static_place -> "static placement"
  | Uniform_system -> "Uniform System placement"
  | Uma -> "UMA"

let uma_fingerprint (r : Runner.uma_result) =
  let caches =
    List.init 2 (fun p ->
        let c = Uma_sys.cache r.Runner.uma p in
        Printf.sprintf "[hit=%d miss=%d]" (Cache.hits c) (Cache.misses c))
  in
  Printf.sprintf "elapsed=%d bus=%d caches=%s" r.Runner.uma_elapsed
    (Uma_sys.bus_busy_ns r.Runner.uma)
    (String.concat "" caches)

(* Run [main] on a two-processor machine with [page_words]-word pages and
   return the run's fingerprint: elapsed time, Counters and per-module
   bookkeeping on PLATINUM's memory, elapsed time, bus and caches on the
   UMA machine. *)
let run_on backend main =
  let config = Config.butterfly_plus ~nprocs:2 ~page_words () in
  let platsys kind =
    Test_fastpath.fingerprint
      (Runner.time ~config ~policy:(Policy.make ~t1:config.Config.t1_freeze_window kind)
         ~frames_per_module:64 ~default_zone_pages:32 main)
  in
  match backend with
  | Platinum -> platsys (Policy.Platinum { thaw_on_fault = false })
  | Static_place -> platsys Policy.Never_move
  | Uniform_system -> platsys Policy.Uniform_system
  | Uma -> uma_fingerprint (Runner.time_uma ~nprocs:2 ~page_words main)

(* --- the differential: into/from ≡ allocate/sub-array --- *)

(* A block read or write of [len] words at buffer offset [off] (runs
   straddle page boundaries freely), moved through a caller buffer at
   offset [at].  Word writes between them vary the data and the
   coherence state. *)
type op =
  | Read_blk of { off : int; len : int; at : int }
  | Write_blk of { off : int; len : int; at : int }
  | Poke of int * int

let gen_op =
  QCheck.Gen.(
    let blk make =
      int_range 0 (page_words + 8) >>= fun len ->
      int_bound (buf_words - len) >>= fun off ->
      map (fun at -> make ~off ~len ~at) (int_bound 40)
    in
    frequency
      [
        (3, blk (fun ~off ~len ~at -> Read_blk { off; len; at }));
        (3, blk (fun ~off ~len ~at -> Write_blk { off; len; at }));
        (1, map2 (fun o v -> Poke (o, v)) (int_bound (buf_words - 1)) (int_bound 9999));
      ])

let show_op = function
  | Read_blk { off; len; at } -> Printf.sprintf "R%d+%d@%d" off len at
  | Write_blk { off; len; at } -> Printf.sprintf "W%d+%d@%d" off len at
  | Poke (o, v) -> Printf.sprintf "P%d=%d" o v

let arb_prog =
  QCheck.make ~print:QCheck.Print.(list show_op) QCheck.Gen.(list_size (int_range 1 30) gen_op)

(* The caller's buffers are larger than any transfer; words outside the
   transferred range must keep this sentinel. *)
let spare = 48
let sentinel = -7

(* The source a write at caller offset [at] takes its words from: a
   function of the op, so both variants write the same values. *)
let source ~off ~len ~at = Array.init (at + len + spare) (fun i -> (off * 1000) + i)

(* Run [prog] on proc 0, then reversed on proc 1, then again on proc 0.
   [into] selects the caller-buffer API; otherwise the allocating one.
   Returns what every read observed and the run's fingerprint. *)
let run_prog backend ~into prog =
  let observed = ref [] in
  let note a = observed := a :: !observed in
  let run_ops buf ops =
    List.iter
      (function
        | Read_blk { off; len; at } ->
          if into then begin
            let dst = Array.make (at + len + spare) sentinel in
            Api.block_read_into ~dst ~dst_off:at (buf + off) len;
            note (Array.sub dst at len);
            note (Array.sub dst 0 at);
            note (Array.sub dst (at + len) spare)
          end
          else begin
            note (Api.block_read (buf + off) len);
            note (Array.make at sentinel);
            note (Array.make spare sentinel)
          end
        | Write_blk { off; len; at } ->
          let src = source ~off ~len ~at in
          if into then Api.block_write_from ~src ~src_off:at (buf + off) len
          else Api.block_write (buf + off) (Array.sub src at len)
        | Poke (o, v) -> Api.write (buf + o) v)
      ops
  in
  let fp =
    run_on backend (fun () ->
        let buf = Api.alloc_pages buf_pages in
        run_ops buf prog;
        let t = Api.spawn ~proc:1 (fun () -> run_ops buf (List.rev prog)) in
        Api.join t;
        run_ops buf prog;
        note (Api.block_read buf buf_words))
  in
  (List.rev !observed, fp)

let prop_into_equals_alloc backend =
  QCheck.Test.make ~count:40
    ~name:
      (Printf.sprintf "block into/from ≡ block read/write of the sub-array (%s)"
         (backend_name backend))
    arb_prog
    (fun prog ->
      let vals_into, fp_into = run_prog backend ~into:true prog in
      let vals_alloc, fp_alloc = run_prog backend ~into:false prog in
      if vals_into <> vals_alloc then QCheck.Test.fail_report "observed values differ";
      if fp_into <> fp_alloc then
        QCheck.Test.fail_reportf "fingerprints differ:\n  into:  %s\n  alloc: %s" fp_into
          fp_alloc;
      true)

(* --- malformed buffer ranges --- *)

(* Each bad call raises [Invalid_argument] inside the thread, charges
   nothing (the clock does not move across it, and the whole run's
   fingerprint equals the run without it) and changes no memory word. *)
let bad_calls buf =
  let dst = Array.make 10 0 and src = Array.make 10 1 in
  [
    ("dst_off negative", fun () -> Api.block_read_into ~dst ~dst_off:(-1) buf 4);
    ("dst too short", fun () -> Api.block_read_into ~dst ~dst_off:7 buf 4);
    ("dst_off past end", fun () -> Api.block_read_into ~dst ~dst_off:11 buf 0);
    ("src_off negative", fun () -> Api.block_write_from ~src ~src_off:(-1) buf 4);
    ("src too short", fun () -> Api.block_write_from ~src ~src_off:8 buf 3);
    ("straddling, src too short", fun () -> Api.block_write_from ~src ~src_off:0 (buf + 60) 11);
    ("negative length", fun () -> Api.block_write_from ~src ~src_off:0 buf (-1));
  ]

let test_bad_ranges backend () =
  let program ~with_bad () =
    let buf = Api.alloc_pages buf_pages in
    let init = Array.init buf_words (fun i -> i + 1) in
    Api.block_write buf init;
    if with_bad then
      List.iter
        (fun (what, call) ->
          let t0 = Api.now () in
          (match call () with
          | () -> Alcotest.failf "%s: no exception" what
          | exception Invalid_argument _ -> ());
          Alcotest.(check int) (what ^ ": nothing charged") t0 (Api.now ()))
        (bad_calls buf);
    Alcotest.(check (array int)) "no memory word changed" init (Api.block_read buf buf_words)
  in
  let fp_bad = run_on backend (program ~with_bad:true) in
  let fp_ref = run_on backend (program ~with_bad:false) in
  Alcotest.(check string) "run identical to one without the bad calls" fp_ref fp_bad

(* --- allocation budget --- *)

(* After warm-up, one [block_read_into] and one [block_write_from] of a
   resident 400-word row allocate no major-heap words (a 400-word result
   array would go straight to the major heap) and only the kernel's
   bounded per-trap bookkeeping on the minor heap. *)
let minor_word_budget = 64

let test_resident_row_allocation () =
  let major = ref nan and minor = ref nan in
  ignore
    (Runner.time ~config:(Config.butterfly_plus ~nprocs:1 ()) ~frames_per_module:16
       ~default_zone_pages:8 (fun () ->
         let n = 400 in
         let base = Api.alloc ~page_aligned:true n in
         let row = Array.init n Fun.id in
         let step () =
           Api.block_read_into ~dst:row ~dst_off:0 base n;
           Api.block_write_from ~src:row ~src_off:0 base n
         in
         for _ = 1 to 8 do
           step ()
         done;
         (* [Gc.counters], not [Gc.quick_stat]: on OCaml 5 the latter
            only folds in the running domain's allocation at a
            collection. *)
         Gc.minor ();
         let minor0, _, major0 = Gc.counters () in
         step ();
         let minor1, _, major1 = Gc.counters () in
         major := major1 -. major0;
         minor := minor1 -. minor0));
  Alcotest.(check (float 0.0)) "no major words" 0.0 !major;
  if !minor > float_of_int minor_word_budget then
    Alcotest.failf "%.0f minor words, budget %d" !minor minor_word_budget

(* --- the in-place oracle --- *)

(* The slice-based elimination the oracle used before it worked in
   place: copy each row's columns [k, n) out, eliminate, copy back. *)
let sliced_reference (p : Gauss.params) =
  let n = p.Gauss.n in
  let quot a b = if b = 0 then 0 else a / b in
  let m =
    Array.init n (fun i -> Array.init n (fun j -> Gauss.init_elem p i j land Gauss.value_mask))
  in
  for k = 0 to n - 2 do
    let piv = Array.sub m.(k) k (n - k) in
    for r = k + 1 to n - 1 do
      let row = Array.sub m.(r) k (n - k) in
      let factor = quot row.(0) piv.(0) in
      for j = 0 to n - k - 1 do
        row.(j) <- (row.(j) - (factor * piv.(j))) land Gauss.value_mask
      done;
      Array.blit row 0 m.(r) k (n - k)
    done
  done;
  m

let test_oracle_in_place () =
  List.iter
    (fun seed ->
      List.iter
        (fun n ->
          let p = Gauss.params ~n ~seed ~nprocs:1 () in
          Alcotest.(check (array (array int)))
            (Printf.sprintf "n=%d seed=%d" n seed)
            (sliced_reference p) (Gauss.sequential p))
        [ 2; 3; 17; 64 ])
    [ 42; 7 ]

let suite =
  List.map
    (fun b -> qtest (prop_into_equals_alloc b))
    [ Platinum; Static_place; Uniform_system; Uma ]
  @ List.map
      (fun b ->
        ( Printf.sprintf "bad buffer range raises, charges nothing (%s)" (backend_name b),
          `Quick,
          test_bad_ranges b ))
      [ Platinum; Uma ]
  @ [
      ("resident 400-word row: no major words", `Quick, test_resident_row_allocation);
      ("in-place oracle ≡ sliced reference", `Quick, test_oracle_in_place);
    ]
