(* Tests for the coalescing effect-boundary fast path (DESIGN.md §4g).

   The contract under test: with coalescing on (the default), every
   program observes exactly what it observes with coalescing off — same
   values, same elapsed virtual time, same Counters, same injection
   schedule — because a coalesced word performs the identical cache and
   interconnect simulation, just without the per-word suspend.  The
   differential here runs random access programs both ways and compares
   full fingerprints; the unit tests pin the invalidation hooks (epoch
   bumps) and the mandatory fallbacks (frozen page, armed monitor,
   pending injected fault).

   The fingerprint covers the memory modules too (requests, busy and
   wait time, busy horizon): the local lane books runs of local words as
   one module acquisition, and that is exactly what elapsed time and
   Counters cannot see. *)

module Api = Platinum_kernel.Api
module Fastpath = Platinum_kernel.Fastpath
module Memsys = Platinum_kernel.Memsys
module Kernel = Platinum_kernel.Kernel
module Platsys = Platinum_kernel.Platsys
module Runner = Platinum_runner.Runner
module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Memmodule = Platinum_machine.Memmodule
module Addr_space = Platinum_vm.Addr_space
module Defrost = Platinum_core.Defrost
module Engine = Platinum_sim.Engine
module Inject = Platinum_sim.Inject
module Coherent = Platinum_core.Coherent
module Counters = Platinum_core.Counters
module Cmap = Platinum_core.Cmap
module Cpage = Platinum_core.Cpage
module Rights = Platinum_core.Rights
module Policy = Platinum_core.Policy
module Check = Platinum_core.Check

let qtest = QCheck_alcotest.to_alcotest

let modules_fingerprint machine =
  Machine.modules machine
  |> Array.map (fun m ->
         Printf.sprintf "[req=%d busy=%d wait=%d until=%d]" (Memmodule.requests m)
           (Memmodule.total_busy_ns m) (Memmodule.total_wait_ns m) (Memmodule.busy_until m))
  |> Array.to_list |> String.concat ""

let fingerprint (r : Runner.result) =
  let c = Coherent.counters r.Runner.setup.Runner.coherent in
  Printf.sprintf
    "elapsed=%d rf=%d wf=%d vm=%d repl=%d migr=%d rmap=%d freeze=%d thaw=%d sd=%d msg=%d \
     int=%d def=%d zf=%d atc=%d fault_ns=%d copy_ns=%d modules=%s"
    r.Runner.elapsed c.Counters.read_faults c.Counters.write_faults c.Counters.vm_faults
    c.Counters.replications c.Counters.migrations c.Counters.remote_maps c.Counters.freezes
    c.Counters.thaws c.Counters.shootdowns c.Counters.messages c.Counters.interrupts
    c.Counters.deferred_updates c.Counters.zero_fills c.Counters.atc_reloads
    c.Counters.fault_ns c.Counters.copy_ns
    (modules_fingerprint r.Runner.setup.Runner.machine)

(* --- the differential: coalesce on ≡ coalesce off --- *)

(* A random access program over a two-page buffer: word reads, writes,
   rmws and block transfers from two threads (proc 0 and proc 1) sharing
   the buffer, so the stream crosses replications, write-fault
   retractions and freezes.  Ops are encoded as ints so the same list
   replays identically on both runs. *)
type op = Read of int | Write of int * int | Rmw of int | Block_read of int * int | Block_write of int * int

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun o -> Read o) (int_bound 255));
        (4, map2 (fun o v -> Write (o, v)) (int_bound 255) (int_bound 9999));
        (2, map (fun o -> Rmw o) (int_bound 255));
        (1, map2 (fun o l -> Block_read (o, 1 + l)) (int_bound 200) (int_bound 40));
        (1, map2 (fun o l -> Block_write (o, 1 + l)) (int_bound 200) (int_bound 40));
      ])

let show_op = function
  | Read o -> Printf.sprintf "R%d" o
  | Write (o, v) -> Printf.sprintf "W%d=%d" o v
  | Rmw o -> Printf.sprintf "M%d" o
  | Block_read (o, l) -> Printf.sprintf "BR%d+%d" o l
  | Block_write (o, l) -> Printf.sprintf "BW%d+%d" o l

let arb_prog = QCheck.make ~print:QCheck.Print.(list show_op) QCheck.Gen.(list_size (int_range 1 60) gen_op)

(* Run [prog] on proc 0 while proc 1 replays it reversed (same shared
   buffer, different order: real cross-processor protocol traffic).
   Returns (observed values, fingerprint). *)
let run_prog ~coalesce prog =
  let observed = ref [] in
  let note v = observed := v :: !observed in
  let run_ops buf ops =
    List.iter
      (fun op ->
        match op with
        | Read o -> note (Api.read (buf + o))
        | Write (o, v) -> Api.write (buf + o) v
        | Rmw o -> note (Api.rmw (buf + o) (fun v -> v + 1))
        | Block_read (o, l) -> Array.iter note (Api.block_read (buf + o) l)
        | Block_write (o, l) -> Api.block_write (buf + o) (Array.init l (fun i -> o + i)))
      ops
  in
  let config = Config.butterfly_plus ~nprocs:2 () in
  let r =
    Runner.time ~config ~frames_per_module:64 ~default_zone_pages:32 ~coalesce (fun () ->
        let buf = Api.alloc ~page_aligned:true 512 in
        run_ops buf prog;
        let t = Api.spawn ~proc:1 (fun () -> run_ops buf (List.rev prog)) in
        Api.join t;
        run_ops buf prog)
  in
  (List.rev !observed, fingerprint r)

let prop_differential =
  QCheck.Test.make ~name:"coalesce on ≡ off: values, elapsed, Counters" ~count:60 arb_prog
    (fun prog ->
      let vals_on, fp_on = run_prog ~coalesce:true prog in
      let vals_off, fp_off = run_prog ~coalesce:false prog in
      if vals_on <> vals_off then QCheck.Test.fail_report "observed values differ";
      if fp_on <> fp_off then
        QCheck.Test.fail_reportf "fingerprints differ:\n  on:  %s\n  off: %s" fp_on fp_off;
      true)

(* --- the local lane: local words booked per segment, not per word --- *)

(* A program over a four-page buffer on four processors, each page
   first-touched by a different processor.  It is a list of segments,
   each a processor and the word ops a thread there performs, so one
   thread's run mixes local lane words with remote words and rmws: lane
   segments open, flush and restart mid-run.  Under PLATINUM's policy,
   replication, migration and invalidation move pages between local and
   remote underneath; under static placement every page stays where it
   was first touched, so most words are coalesced remote words. *)
type mop = M_read of int | M_write of int * int | M_rmw of int

let mpage_words = 64
let mbuf_words = 4 * mpage_words

let gen_mop =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun o -> M_read o) (int_bound (mbuf_words - 1)));
        (4, map2 (fun o v -> M_write (o, v)) (int_bound (mbuf_words - 1)) (int_bound 9999));
        (1, map (fun o -> M_rmw o) (int_bound (mbuf_words - 1)));
      ])

let show_mop = function
  | M_read o -> Printf.sprintf "R%d" o
  | M_write (o, v) -> Printf.sprintf "W%d=%d" o v
  | M_rmw o -> Printf.sprintf "M%d" o

let arb_mprog =
  QCheck.make
    ~print:QCheck.Print.(pair bool (list (pair int (list show_mop))))
    QCheck.Gen.(
      pair bool
        (list_size (int_range 1 8) (pair (int_bound 3) (list_size (int_range 1 50) gen_mop))))

let policy_of ~static config =
  Policy.make ~t1:config.Config.t1_freeze_window
    (if static then Policy.Never_move else Policy.Platinum { thaw_on_fault = false })

let mconfig = Config.butterfly_plus ~nprocs:4 ~page_words:mpage_words ()

(* The Runner stack, optionally with the local lane forced off: the same
   coalescer with every word on the per-word cores — the reference the
   lane must match exactly, concurrency included. *)
let make_setup ?(config = mconfig) ?(coalesce = true) ~static ~lane () =
  let policy = policy_of ~static config in
  if lane then
    Runner.make ~config ~policy ~frames_per_module:64 ~default_zone_pages:32 ~coalesce ()
  else begin
    let engine = Engine.create () in
    let machine = Machine.create config in
    let coherent = Coherent.create machine ~engine ~policy ~frames_per_module:64 () in
    let aspace = Addr_space.create coherent in
    let platsys = Platsys.create coherent aspace ~default_zone_pages:32 () in
    let ms = Platsys.memsys platsys in
    let no_lane (o : Fastpath.ops) =
      { o with Fastpath.fp_lane_probe = (fun ~proc:_ ~cmap:_ ~vpage:_ -> None) }
    in
    let memsys = { ms with Memsys.fastpath = Option.map no_lane ms.Memsys.fastpath } in
    let kernel = Kernel.create ~coalesce ~engine ~machine ~memsys () in
    Defrost.install coherent engine;
    { Runner.engine; machine; coherent; aspace; platsys; kernel }
  end

(* Run [prog]: the first-touch phase, then its segments — one after
   another, or all at once when [concurrent].  Returns (observed values,
   fingerprint, lane words). *)
let run_mprog ?config ?coalesce ~lane ~concurrent (static, prog) =
  let observed = ref [] in
  let note v = observed := v :: !observed in
  let run_mops buf ops =
    List.iter
      (function
        | M_read o -> note (Api.read (buf + o))
        | M_write (o, v) -> Api.write (buf + o) v
        | M_rmw o -> note (Api.rmw (buf + o) (fun v -> v + 1)))
      ops
  in
  let c = Fastpath.ctx () in
  Fastpath.reset_stats c;
  let setup = make_setup ?config ?coalesce ~static ~lane () in
  let r =
    Runner.run setup ~main:(fun () ->
        let buf = Api.alloc ~page_aligned:true mbuf_words in
        for p = 0 to 3 do
          Api.join (Api.spawn ~proc:p (fun () -> Api.write (buf + (p * mpage_words)) p))
        done;
        let spawn (proc, ops) = Api.spawn ~proc (fun () -> run_mops buf ops) in
        if concurrent then List.iter Api.join (List.map spawn prog)
        else List.iter (fun seg -> Api.join (spawn seg)) prog)
  in
  (List.rev !observed, fingerprint r, (Fastpath.stats c).Fastpath.lane)

let check_same what (v_a, fp_a, _) (v_b, fp_b, _) =
  if v_a <> v_b then QCheck.Test.fail_reportf "%s: observed values differ" what;
  if fp_a <> fp_b then
    QCheck.Test.fail_reportf "%s: fingerprints differ:\n  %s\n  %s" what fp_a fp_b

let prop_lane_differential =
  QCheck.Test.make ~name:"4 procs, mixed local/remote: lane ≡ per-word ≡ coalesce off"
    ~count:40 arb_mprog (fun prog ->
      let off = run_mprog ~coalesce:false ~lane:true ~concurrent:false prog in
      let lane = run_mprog ~lane:true ~concurrent:false prog in
      let per_word = run_mprog ~lane:false ~concurrent:false prog in
      check_same "lane vs coalesce off" lane off;
      check_same "lane vs per-word cores" lane per_word;
      true)

(* Concurrent threads: a coalesced run is charged at [base + acc] rather
   than interleaved word by word, so coalesce on and off legitimately
   differ here — but the lane must still match the per-word cores. *)
let prop_lane_concurrent =
  QCheck.Test.make ~name:"4 concurrent threads: lane ≡ per-word cores" ~count:40 arb_mprog
    (fun prog ->
      let lane = run_mprog ~lane:true ~concurrent:true prog in
      let per_word = run_mprog ~lane:false ~concurrent:true prog in
      check_same "lane vs per-word cores" lane per_word;
      true)

(* The mixed program must exercise both paths, or the properties above
   are vacuous: lane words and per-word coalesced words in one run. *)
let test_lane_engages () =
  let prog =
    ( true,
      [
        (0, [ M_read 1; M_read 2; M_write (3, 7); M_read 70; M_read 4; M_rmw 5; M_read 6 ]);
        (2, [ M_read 130; M_read 131; M_write (10, 1); M_write (132, 2); M_read 133 ]);
      ] )
  in
  let c = Fastpath.ctx () in
  let _, _, lane = run_mprog ~lane:true ~concurrent:false prog in
  let st = Fastpath.stats c in
  Alcotest.(check bool) (Printf.sprintf "lane words (got %d)" lane) true (lane > 0);
  Alcotest.(check bool)
    (Printf.sprintf "per-word coalesced words too (%d coalesced)" st.Fastpath.coalesced)
    true
    (st.Fastpath.coalesced > lane);
  let _, _, lane_off = run_mprog ~lane:false ~concurrent:false prog in
  Alcotest.(check int) "forced off, the lane never runs" 0 lane_off

(* The §7 caches break the lane's identity (a cached read costs
   [t_cache_hit] and no module time), so with caches on no word may take
   the lane — and coalescing must still match the per-effect path. *)
let test_caches_disable_lane () =
  let config = Config.with_local_caches mconfig in
  let prog =
    ( false,
      [
        (1, List.init 40 (fun i -> if i land 1 = 0 then M_read (64 + i) else M_write (64 + i, i)));
        (0, List.init 40 (fun i -> M_read (64 + i)));
      ] )
  in
  let v_on, fp_on, lane = run_mprog ~config ~lane:true ~concurrent:false prog in
  let v_off, fp_off, _ = run_mprog ~config ~coalesce:false ~lane:true ~concurrent:false prog in
  Alcotest.(check int) "caches on: no lane words" 0 lane;
  Alcotest.(check (list int)) "values identical" v_off v_on;
  Alcotest.(check string) "fingerprint identical" fp_off fp_on

(* The coalescer must actually engage on the kind of stream it exists
   for — otherwise the differential above is vacuous. *)
let test_coalescer_engages () =
  let c = Fastpath.ctx () in
  Fastpath.reset_stats c;
  let r =
    Runner.time ~frames_per_module:64 ~default_zone_pages:32 (fun () ->
        let buf = Api.alloc ~page_aligned:true 1024 in
        for i = 0 to 1023 do
          Api.write (buf + i) i
        done;
        let sum = ref 0 in
        for i = 0 to 1023 do
          sum := !sum + Api.read (buf + i)
        done;
        Alcotest.(check int) "sum of 0..1023" (1023 * 1024 / 2) !sum)
  in
  ignore r;
  let st = Fastpath.stats c in
  Alcotest.(check bool)
    (Printf.sprintf "most words coalesced (got %d)" st.Fastpath.coalesced)
    true
    (st.Fastpath.coalesced > 1500);
  Alcotest.(check bool) "runs closed" true (st.Fastpath.runs > 0)

let test_disabled_never_engages () =
  let c = Fastpath.ctx () in
  Fastpath.reset_stats c;
  Runner.time ~frames_per_module:64 ~default_zone_pages:32 ~coalesce:false (fun () ->
      let buf = Api.alloc ~page_aligned:true 256 in
      for i = 0 to 255 do
        Api.write (buf + i) i
      done)
  |> ignore;
  let st = Fastpath.stats c in
  Alcotest.(check int) "no words coalesced with coalesce:false" 0 st.Fastpath.coalesced

(* --- invalidation hooks: the epoch bumps that flush in-flight runs --- *)

let mk_coherent () =
  let config = Config.butterfly_plus ~nprocs:4 ~page_words:16 () in
  let policy =
    Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  Coherent.create (Machine.create config) ~engine:(Engine.create ()) ~policy
    ~frames_per_module:64 ()

let check_bumps what before after = Alcotest.(check bool) (what ^ " bumps fp_epoch") true (after > before)

let test_epoch_bumps () =
  let coh = mk_coherent () in
  let cm = Coherent.new_aspace coh in
  let page = Coherent.new_cpage coh () in
  let e0 = Coherent.fp_epoch coh in
  Coherent.bind coh cm ~vpage:0 page Rights.Read_write;
  let e1 = Coherent.fp_epoch coh in
  check_bumps "bind" e0 e1;
  ignore (Coherent.activate coh ~now:0 ~proc:0 ~aspace:(Cmap.aspace cm));
  let e2 = Coherent.fp_epoch coh in
  check_bumps "activate" e1 e2;
  (* Fault the page in (the fault-resolution path must bump too). *)
  ignore (Coherent.write_word coh ~now:0 ~proc:0 ~cmap:cm ~vaddr:3 42);
  let e3 = Coherent.fp_epoch coh in
  check_bumps "fault resolution" e2 e3;
  Coherent.freeze_page coh ~now:1000 page;
  let e4 = Coherent.fp_epoch coh in
  check_bumps "freeze_page" e3 e4;
  Coherent.thaw_page coh ~now:2000 page;
  let e5 = Coherent.fp_epoch coh in
  check_bumps "thaw_page" e4 e5;
  Coherent.set_monitor coh (Some (Check.create_monitor ()));
  let e6 = Coherent.fp_epoch coh in
  check_bumps "set_monitor" e5 e6;
  Coherent.set_monitor coh None;
  let e7 = Coherent.fp_epoch coh in
  check_bumps "monitor disarm" e6 e7;
  ignore (Coherent.unbind coh ~now:3000 cm ~vpage:0);
  let e8 = Coherent.fp_epoch coh in
  check_bumps "unbind (shootdown)" e7 e8

(* A write fault that retracts read replicas (the Cmap-retraction
   shootdown) must bump the epoch: any other thread's cached read slots
   on that page die with it. *)
let test_retraction_bumps () =
  let coh = mk_coherent () in
  let cm0 = Coherent.new_aspace coh and cm1 = Coherent.new_aspace coh in
  let page = Coherent.new_cpage coh () in
  Coherent.bind coh cm0 ~vpage:0 page Rights.Read_write;
  Coherent.bind coh cm1 ~vpage:0 page Rights.Read_write;
  ignore (Coherent.activate coh ~now:0 ~proc:0 ~aspace:(Cmap.aspace cm0));
  ignore (Coherent.activate coh ~now:0 ~proc:1 ~aspace:(Cmap.aspace cm1));
  (* Both processors read: the page replicates. *)
  ignore (Coherent.read_word coh ~now:1000 ~proc:0 ~cmap:cm0 ~vaddr:1);
  ignore (Coherent.read_word coh ~now:2000 ~proc:1 ~cmap:cm1 ~vaddr:1);
  let e0 = Coherent.fp_epoch coh in
  (* Proc 0 writes: the replicas are retracted. *)
  ignore (Coherent.write_word coh ~now:3000 ~proc:0 ~cmap:cm0 ~vaddr:1 7);
  check_bumps "write-fault retraction" e0 (Coherent.fp_epoch coh)

(* --- mandatory fallbacks mid-stream --- *)

(* Freezing a page mid-stream (Api.advise is itself an effect, so it
   settles the in-flight run) must push subsequent accesses to that page
   onto the full-suspend path — and the values must stay correct. *)
let test_freeze_forces_fallback () =
  let c = Fastpath.ctx () in
  let pw = ref 0 in
  Runner.time ~frames_per_module:64 ~default_zone_pages:32 (fun () ->
      pw := Api.page_words ();
      let buf = Api.alloc ~page_aligned:true !pw in
      for i = 0 to !pw - 1 do
        Api.write (buf + i) i
      done;
      Api.advise buf !pw Memsys.Freeze;
      Fastpath.reset_stats c;
      (* Writes to a frozen page are ineligible: every one falls back. *)
      for i = 0 to !pw - 1 do
        Api.write (buf + i) (2 * i)
      done;
      let st = Fastpath.stats c in
      Alcotest.(check int) "frozen page: zero words coalesced" 0 st.Fastpath.coalesced;
      Alcotest.(check bool) "frozen page: fallbacks taken" true (st.Fastpath.fallbacks >= !pw);
      (* Thaw: the page becomes eligible again. *)
      Api.advise buf !pw Memsys.Thaw;
      Fastpath.reset_stats c;
      let sum = ref 0 in
      for i = 0 to !pw - 1 do
        sum := !sum + Api.read (buf + i)
      done;
      Alcotest.(check int) "values written through the frozen window" (!pw * (!pw - 1)) !sum;
      let st = Fastpath.stats c in
      Alcotest.(check bool) "thawed page coalesces again" true (st.Fastpath.coalesced > 0))
  |> ignore

(* --- composition with the sanitizer and the fault plane (§4g) --- *)

(* An armed monitor makes every page ineligible: the coalescer must not
   bypass the per-transition invariant sweeps. *)
let test_monitor_disables_coalescing () =
  let c = Fastpath.ctx () in
  let setup = Runner.make ~frames_per_module:64 ~default_zone_pages:32 () in
  Coherent.set_monitor setup.Runner.coherent (Some (Check.create_monitor ()));
  Fastpath.reset_stats c;
  let sum = ref 0 in
  Runner.run setup ~main:(fun () ->
      let buf = Api.alloc ~page_aligned:true 512 in
      for i = 0 to 511 do
        Api.write (buf + i) i
      done;
      for i = 0 to 511 do
        sum := !sum + Api.read (buf + i)
      done)
  |> ignore;
  Alcotest.(check int) "values correct under the monitor" (511 * 512 / 2) !sum;
  let st = Fastpath.stats c in
  Alcotest.(check int) "monitor armed: zero words coalesced" 0 st.Fastpath.coalesced

(* Under injection the coalescer defers to the full path on every word
   whose next fault draw would inject, so the fault schedule — and with
   it every counter — lands exactly where the seed path put it. *)
let run_injected ~coalesce ~rate () =
  let config = Config.butterfly_plus ~nprocs:2 () in
  let setup =
    Runner.make ~config ~frames_per_module:64 ~default_zone_pages:32
      ~inject:(Inject.config ~seed:11L ~rate ()) ~coalesce ()
  in
  let out = ref 0 in
  let r =
    Runner.run setup ~main:(fun () ->
        let buf = Api.alloc ~page_aligned:true 1024 in
        (* The shared buffer is write-shared and soon frozen; each
           processor's private page stays local, the stream the coalescer
           drains.  The private phases run one after the other: a
           coalesced run is charged at [base + acc], so concurrent runs
           contending for one module are not word-for-word comparable. *)
        let priv = Array.init 2 (fun _ -> Api.alloc ~page_aligned:true 256) in
        let private_phase me () =
          for i = 0 to 255 do
            Api.write (priv.(me) + i) (i * me)
          done;
          for i = 0 to 255 do
            out := !out + Api.read (priv.(me) + i)
          done
        in
        let worker me () =
          for i = 0 to 1023 do
            if i land 1 = me then Api.write (buf + i) (i + me)
          done;
          for i = 0 to 1023 do
            out := !out + Api.read (buf + i)
          done
        in
        let t = Api.spawn ~proc:1 (worker 1) in
        worker 0 ();
        Api.join t;
        Api.join (Api.spawn ~proc:1 (private_phase 1));
        private_phase 0 ())
  in
  let inj =
    match Machine.inject setup.Runner.machine with Some i -> i | None -> assert false
  in
  (!out, fingerprint r, Inject.fingerprint inj, Inject.faults_injected inj)

let test_injection_differential () =
  let c = Fastpath.ctx () in
  Fastpath.reset_stats c;
  let v_on, fp_on, inj_on, faults_on = run_injected ~coalesce:true ~rate:0.02 () in
  let st = Fastpath.stats c in
  Alcotest.(check bool) "words still coalesced under the plane" true (st.Fastpath.coalesced > 0);
  Alcotest.(check int) "no lane word while the plane is live" 0 st.Fastpath.lane;
  let v_off, fp_off, inj_off, faults_off = run_injected ~coalesce:false ~rate:0.02 () in
  Alcotest.(check bool) "the schedule actually injected" true (faults_on > 0);
  Alcotest.(check int) "values identical under injection" v_off v_on;
  Alcotest.(check string) "protocol fingerprint identical" fp_off fp_on;
  Alcotest.(check string) "injector fingerprint identical" inj_off inj_on;
  Alcotest.(check int) "fault count identical" faults_off faults_on;
  (* An idle plane (rate 0) draws nothing, so the lane runs — and stays
     exact. *)
  Fastpath.reset_stats c;
  let v_on, fp_on, _, _ = run_injected ~coalesce:true ~rate:0.0 () in
  Alcotest.(check bool) "idle plane: the lane runs" true ((Fastpath.stats c).Fastpath.lane > 0);
  let v_off, fp_off, _, _ = run_injected ~coalesce:false ~rate:0.0 () in
  Alcotest.(check int) "idle plane: values identical" v_off v_on;
  Alcotest.(check string) "idle plane: fingerprint identical" fp_off fp_on

(* --- the hardened stride API (input validation) --- *)

let test_stride_validation () =
  Runner.time ~frames_per_module:64 ~default_zone_pages:32 (fun () ->
      let buf = Api.alloc ~page_aligned:true 64 in
      Alcotest.check_raises "write_stride: ragged data"
        (Invalid_argument "write_stride: data length 7 is not a multiple of elem_words 3")
        (fun () -> Api.write_stride ~elem_words:3 buf ~stride:4 (Array.make 7 0));
      Alcotest.check_raises "write_stride: elem_words 0"
        (Invalid_argument "write_stride: elem_words 0 must be positive") (fun () ->
          Api.write_stride ~elem_words:0 buf ~stride:4 [| 1 |]);
      Alcotest.check_raises "read_stride: negative count"
        (Invalid_argument "read_stride: negative count -2") (fun () ->
          ignore (Api.read_stride buf ~count:(-2) ~stride:4));
      Alcotest.check_raises "read_stride: elem_words -1"
        (Invalid_argument "read_stride: elem_words -1 must be positive") (fun () ->
          ignore (Api.read_stride ~elem_words:(-1) buf ~count:2 ~stride:4));
      (* A well-formed call still round-trips. *)
      Api.write_stride ~elem_words:2 buf ~stride:4 [| 1; 2; 3; 4 |];
      let back = Api.read_stride ~elem_words:2 buf ~count:2 ~stride:4 in
      Alcotest.(check (array int)) "stride round-trip" [| 1; 2; 3; 4 |] back)
  |> ignore

let suite =
  [
    qtest prop_differential;
    qtest prop_lane_differential;
    qtest prop_lane_concurrent;
    ("lane and per-word words in one run", `Quick, test_lane_engages);
    ("caches on: lane off, on ≡ off", `Quick, test_caches_disable_lane);
    ("coalescer engages on a word stream", `Quick, test_coalescer_engages);
    ("coalesce:false never engages", `Quick, test_disabled_never_engages);
    ("epoch bumps on every invalidation hook", `Quick, test_epoch_bumps);
    ("epoch bumps on replica retraction", `Quick, test_retraction_bumps);
    ("freeze/thaw force fallback mid-stream", `Quick, test_freeze_forces_fallback);
    ("armed monitor disables coalescing", `Quick, test_monitor_disables_coalescing);
    ("injection schedule identical on/off", `Quick, test_injection_differential);
    ("stride API rejects malformed input", `Quick, test_stride_validation);
  ]
