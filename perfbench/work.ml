(* The four benchmark workloads.  Each one builds its instance from the
   seed, runs it once, checks its output and returns one [rep]: host times,
   the work done, simulated time and the per-layer readings of that run.
   Caches start cold in every rep: a fresh machine, first-touch faults
   included, as a user pays them on every run. *)

module Api = Platinum_kernel.Api
module Kernel = Platinum_kernel.Kernel
module Memsys = Platinum_kernel.Memsys
module Fastpath = Platinum_kernel.Fastpath
module Platsys = Platinum_kernel.Platsys
module Engine = Platinum_sim.Engine
module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Memmodule = Platinum_machine.Memmodule
module Coherent = Platinum_core.Coherent
module Counters = Platinum_core.Counters
module Memtxn = Platinum_core.Memtxn
module Policy = Platinum_core.Policy
module Defrost = Platinum_core.Defrost
module Addr_space = Platinum_vm.Addr_space
module Runner = Platinum_runner.Runner
module Gauss = Platinum_workload.Gauss
module Parkernel = Platinum_scale.Parkernel
module Serve = Platinum_serve.Serve
module Arrivals = Platinum_sim.Arrivals
module Hist = Platinum_stats.Hist

type rep = {
  setup_s : float option;
      (** host seconds building the instance, when the run builds it
          separately from running it *)
  run_s : float;  (** host seconds in the simulation phase *)
  work : int;  (** units of work done: data words, events or requests *)
  sim_ns : int;  (** simulated time of the run *)
  checks : int;  (** output checks made *)
  failures : string list;  (** the checks that failed *)
  layers : (string * float) list;  (** per-layer readings of this rep *)
  witness : (string * string) list;
      (** deterministic outputs (simulated times, counts, fingerprints)
          that must repeat exactly for one seed, traced or not *)
}

type t = {
  name : string;
  work_unit : string;  (** what [rep.work] counts *)
  setup_only : (unit -> float) option;
      (** build the instance without running it; host seconds *)
  run : parent:int -> rep;
}

let secs dt_ns = float_of_int dt_ns /. 1e9
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- the sequential stack, built as Runner.make builds it but with the
       kernel's memory-system record wrapped at its boundaries --- *)

type probes = {
  mutable words : int;  (** data words through [submit] *)
  submit : Trace.boundary;
  fault : Trace.boundary;  (** submits during which the fault counters rose *)
  fastpath : Trace.boundary;
}

let probes () =
  {
    words = 0;
    submit = Trace.boundary "memsys.submit";
    fault = Trace.boundary "coherent.fault";
    fastpath = Trace.boundary "fastpath.op";
  }

let fp_sample = 32

let faults (c : Counters.t) = c.Counters.read_faults + c.Counters.write_faults

(* Untraced, the wrapper only counts calls and data words (no clock
   reads); traced, it also times every submit and fast-path op. *)
let wrap_memsys p counters (ms : Memsys.t) =
  let inner = ms.Memsys.submit in
  if not !Trace.enabled then
    let submit ~now ~proc ~aspace txn =
      p.words <- p.words + Memtxn.data_words txn;
      p.submit.Trace.calls <- p.submit.Trace.calls + 1;
      inner ~now ~proc ~aspace txn
    in
    { ms with Memsys.submit }
  else
    let submit ~now ~proc ~aspace txn =
      p.words <- p.words + Memtxn.data_words txn;
      let f0 = faults counters in
      let t0 = Trace.now_ns () in
      let r = inner ~now ~proc ~aspace txn in
      let dt = Trace.since t0 in
      Trace.tick p.submit dt;
      if faults counters <> f0 then Trace.tick p.fault dt;
      r
    in
    (* A fast-path op costs about as much as two clock reads, so only
       every [fp_sample]th call is timed and its time scaled up. *)
    let timed f =
      let b = p.fastpath in
      b.Trace.calls <- b.Trace.calls + 1;
      if b.Trace.calls mod fp_sample <> 0 then f ()
      else begin
        let t0 = Trace.now_ns () in
        let r = f () in
        b.Trace.ns <- b.Trace.ns + (fp_sample * Trace.since t0);
        r
      end
    in
    let wrap_ops (o : Fastpath.ops) =
      {
        o with
        Fastpath.fp_probe =
          (fun ~proc ~aspace ~vpage ~write ->
            timed (fun () -> o.Fastpath.fp_probe ~proc ~aspace ~vpage ~write));
        fp_read =
          (fun ~now ~proc ~cmap ~vpage ~vaddr ->
            timed (fun () -> o.Fastpath.fp_read ~now ~proc ~cmap ~vpage ~vaddr));
        fp_write =
          (fun ~now ~proc ~cmap ~vpage ~vaddr ~value ->
            timed (fun () -> o.Fastpath.fp_write ~now ~proc ~cmap ~vpage ~vaddr ~value));
        fp_rmw =
          (fun ~now ~proc ~cmap ~vpage ~vaddr ~f ->
            timed (fun () -> o.Fastpath.fp_rmw ~now ~proc ~cmap ~vpage ~vaddr ~f));
      }
    in
    { ms with Memsys.submit; fastpath = Option.map wrap_ops ms.Memsys.fastpath }

type stack = {
  engine : Engine.t;
  machine : Machine.t;
  coherent : Coherent.t;
  kernel : Kernel.t;
}

let build_stack p config =
  let policy =
    Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  let engine = Engine.create () in
  let machine = Machine.create config in
  let coherent = Coherent.create machine ~engine ~policy ~frames_per_module:1024 () in
  let aspace = Addr_space.create coherent in
  let platsys = Platsys.create coherent aspace () in
  let memsys = wrap_memsys p (Coherent.counters coherent) (Platsys.memsys platsys) in
  let kernel = Kernel.create ~engine ~machine ~memsys () in
  Defrost.install coherent engine;
  { engine; machine; coherent; kernel }

(* The layer readings of one sequential run.  Times are zero untraced. *)
let seq_layers st p ~run_s ~elapsed =
  let c = Coherent.counters st.coherent in
  let fp = Fastpath.stats (Fastpath.ctx ()) in
  let events = Engine.events_processed st.engine in
  let submit_s = secs p.submit.Trace.ns and fp_s = secs p.fastpath.Trace.ns in
  let fault_s = secs p.fault.Trace.ns in
  let mods = Machine.modules st.machine in
  let sum f = Array.fold_left (fun a m -> a + f m) 0 mods in
  let nfaults = faults c in
  let traced = !Trace.enabled in
  [
    ("engine.events", float_of_int events);
    ("engine.host_ns_per_event", run_s *. 1e9 /. float_of_int (max 1 events));
    ("kernel.self_s", if traced then run_s -. submit_s -. fp_s else 0.0);
    ("kernel.coalesced_words", float_of_int fp.Fastpath.coalesced);
    ("kernel.fallbacks", float_of_int fp.Fastpath.fallbacks);
    ("kernel.coalesce_ratio", ratio fp.Fastpath.coalesced (fp.Fastpath.coalesced + p.words));
    ("kernel.context_switches", float_of_int (Kernel.context_switches st.kernel));
    ("memsys.submit_calls", float_of_int p.submit.Trace.calls);
    ("memsys.submit_s", submit_s);
    ("memsys.ns_per_submit", 1e9 *. submit_s /. float_of_int (max 1 p.submit.Trace.calls));
    ("memsys.hit_s", submit_s -. fault_s);
    ("fastpath.op_calls", float_of_int p.fastpath.Trace.calls);
    ("fastpath.op_s", fp_s);
    ("machine.module_requests", float_of_int (sum Memmodule.requests));
    ("machine.module_wait_sim_ns", float_of_int (sum Memmodule.total_wait_ns));
    ( "machine.max_module_util",
      Array.fold_left (fun a m -> Float.max a (Memmodule.utilization m ~horizon:elapsed)) 0.0 mods
    );
    ("machine.ipis", float_of_int (Machine.ipis_sent st.machine));
    ("coherent.fault_s", fault_s);
    ("coherent.faults", float_of_int nfaults);
    ("coherent.us_per_fault", 1e6 *. fault_s /. float_of_int (max 1 nfaults));
    ("coherent.replications", float_of_int c.Counters.replications);
    ("coherent.migrations", float_of_int c.Counters.migrations);
    ("coherent.remote_maps", float_of_int c.Counters.remote_maps);
    ("coherent.freezes", float_of_int c.Counters.freezes);
    ("coherent.thaws", float_of_int c.Counters.thaws);
    ("coherent.shootdowns", float_of_int c.Counters.shootdowns);
    ("coherent.interrupts", float_of_int c.Counters.interrupts);
    ("coherent.fault_sim_ns", float_of_int c.Counters.fault_ns);
    ("coherent.copy_sim_ns", float_of_int c.Counters.copy_ns);
  ]

(* One run of a program on the sequential stack.  [prepare] builds the
   program ([main]) and the check to make on its output afterwards. *)
let seq_rep ~parent ~config ~prepare =
  let p = probes () in
  let t0 = Trace.now_ns () in
  let st, main, check =
    Trace.with_span ~parent "setup" (fun _ ->
        let st = build_stack p config in
        let main, check = prepare () in
        (st, main, check))
  in
  let t1 = Trace.now_ns () in
  Fastpath.reset_stats (Fastpath.ctx ());
  let elapsed, invariants =
    Trace.with_span ~parent "run" (fun id ->
        let elapsed = Kernel.run st.kernel ~main in
        let inv = Coherent.check_invariants st.coherent in
        Trace.log_boundaries ~span:id [ p.submit; p.fastpath ];
        (elapsed, inv))
  in
  let t2 = Trace.now_ns () in
  let run_s = secs (t2 - t1) in
  let failures =
    (match invariants with Ok () -> [] | Error e -> [ "coherence invariants: " ^ e ])
    @ check ()
  in
  let layers = seq_layers st p ~run_s ~elapsed in
  let c = Coherent.counters st.coherent in
  let fp = Fastpath.stats (Fastpath.ctx ()) in
  {
    setup_s = Some (secs (t1 - t0));
    run_s;
    work = p.words + fp.Fastpath.coalesced;
    sim_ns = elapsed;
    checks = 2;
    failures;
    layers;
    witness =
      [
        ("sim_ns", string_of_int elapsed);
        ("words", string_of_int (p.words + fp.Fastpath.coalesced));
        ("coalesced_words", string_of_int fp.Fastpath.coalesced);
        ("submit_calls", string_of_int p.submit.Trace.calls);
        ("events", string_of_int (Engine.events_processed st.engine));
        ("faults", string_of_int (faults c));
        ("replications", string_of_int c.Counters.replications);
        ("freezes", string_of_int c.Counters.freezes);
        ("context_switches", string_of_int (Kernel.context_switches st.kernel));
      ];
  }

let setup_only ~config ~prepare () =
  let t0 = Trace.now_ns () in
  let st = build_stack (probes ()) config in
  let main, _ = prepare () in
  let t1 = Trace.now_ns () in
  ignore (Sys.opaque_identity (st, main));
  secs (t1 - t0)

(* --- gauss-fig1: Figure 1's elimination, n = 400 on 16 processors --- *)

let gauss ~seed =
  let config = Config.butterfly_plus () in
  (* The oracle runs inside [main] after the timed elimination (the
     workload's own self-check), so its host cost is part of [run_s]. *)
  let prepare () =
    let out, main = Gauss.make (Gauss.params ~n:400 ~nprocs:16 ~seed ~verify:true ()) in
    let check () =
      if out.Platinum_workload.Outcome.ok then []
      else [ "gauss oracle: " ^ out.Platinum_workload.Outcome.detail ]
    in
    (main, check)
  in
  {
    name = "gauss-fig1";
    work_unit = "words";
    setup_only = Some (setup_only ~config ~prepare);
    run = (fun ~parent -> seq_rep ~parent ~config ~prepare);
  }

(* --- stencil-perword: a per-word Jacobi sweep, 4 processors ---

   Every interior row is recomputed word by word from the three rows
   around it (3 reads + 1 write per word), rows block-partitioned over the
   workers.  One [spawn_join_all] per iteration is the barrier, so the
   result is the exact sequential stencil and a host oracle checks it. *)

let stencil_n = 512
let stencil_iters = 8
let stencil_procs = 4

let stencil_init ~seed =
  let n = stencil_n in
  Array.init (n * n) (fun i -> Hashtbl.hash (seed, i) land 0xFFFF)

let stencil_step ~n src dst =
  for r = 1 to n - 2 do
    for j = 0 to n - 1 do
      dst.((r * n) + j) <-
        (src.(((r - 1) * n) + j) + src.((r * n) + j) + src.(((r + 1) * n) + j)) / 3
    done
  done

let stencil_oracle ~seed =
  let n = stencil_n in
  let a = stencil_init ~seed in
  let b = Array.copy a in
  let src = ref a and dst = ref b in
  for _ = 1 to stencil_iters do
    stencil_step ~n !src !dst;
    let t = !src in
    src := !dst;
    dst := t
  done;
  !src

let stencil ~seed =
  let n = stencil_n and nprocs = stencil_procs in
  let config = Config.butterfly_plus ~nprocs () in
  let init = stencil_init ~seed in
  let expected = stencil_oracle ~seed in
  let prepare () =
    let result = ref [||] in
    let main () =
      let words = n * n in
      let a = Api.alloc ~page_aligned:true words in
      let b = Api.alloc ~page_aligned:true words in
      let interior = n - 2 in
      let lo me = 1 + (me * interior / nprocs) in
      let hi me = (1 + ((me + 1) * interior / nprocs)) - 1 in
      let procs = List.init nprocs Fun.id in
      (* First touch places each worker's rows (and the fixed boundary
         rows next to them) in its own memory. *)
      let first_touch me =
        let r0 = if me = 0 then 0 else lo me in
        let r1 = if me = nprocs - 1 then n - 1 else hi me in
        let rows = Array.sub init (r0 * n) ((r1 - r0 + 1) * n) in
        Api.block_write (a + (r0 * n)) rows;
        Api.block_write (b + (r0 * n)) rows
      in
      Api.spawn_join_all ~procs (List.init nprocs (fun me _ -> first_touch me));
      let sweep ~src ~dst me =
        for r = lo me to hi me do
          for j = 0 to n - 1 do
            let above = Api.read (src + ((r - 1) * n) + j) in
            let here = Api.read (src + (r * n) + j) in
            let below = Api.read (src + ((r + 1) * n) + j) in
            Api.write (dst + (r * n) + j) ((above + here + below) / 3)
          done
        done
      in
      let src = ref a and dst = ref b in
      for _ = 1 to stencil_iters do
        let s = !src and d = !dst in
        Api.spawn_join_all ~procs (List.init nprocs (fun me _ -> sweep ~src:s ~dst:d me));
        src := d;
        dst := s
      done;
      result := Api.block_read !src words
    in
    let check () = if !result = expected then [] else [ "stencil: grid differs from the host oracle" ] in
    (main, check)
  in
  {
    name = "stencil-perword";
    work_unit = "words";
    setup_only = Some (setup_only ~config ~prepare);
    run = (fun ~parent -> seq_rep ~parent ~config ~prepare);
  }

(* --- hosted-jacobi256: the kernel on the sharded engine --- *)

(* Parkernel's Jacobi takes no seeded input without fault injection, so
   its fingerprint is the same for every seed; a change to it is a change
   to the simulated result. *)
let hosted_fingerprint = "33425b64ae868880"

let hosted ~seed =
  let config = Config.hierarchical ~cluster_size:16 ~nodes:256 () in
  let run ~parent =
    let t0 = Trace.now_ns () in
    let r =
      Trace.with_span ~parent "hosted" (fun _ ->
          Parkernel.run ~shards:2 ~domains:1 ~seed:(Int64.of_int seed) ~config Parkernel.Jacobi)
    in
    let total = secs (Trace.now_ns () - t0) in
    let setup_s = r.Parkernel.setup_ms /. 1e3 in
    let run_s = total -. setup_s in
    let failures =
      (if r.Parkernel.verified then [] else [ "hosted: output differs from the host oracle" ])
      @
      if r.Parkernel.fingerprint = hosted_fingerprint then []
      else [ "hosted: fingerprint " ^ r.Parkernel.fingerprint ^ " is not the pinned one" ]
    in
    let events = r.Parkernel.events and windows = r.Parkernel.windows in
    {
      setup_s = Some setup_s;
      run_s;
      work = events;
      sim_ns = r.Parkernel.clock;
      checks = 2;
      failures;
      layers =
        [
          ("engine.events", float_of_int events);
          ("engine.host_ns_per_event", run_s *. 1e9 /. float_of_int (max 1 events));
          ("shard.windows", float_of_int windows);
          ("shard.events_per_window", ratio events windows);
          ("shard.us_per_window", run_s *. 1e6 /. float_of_int (max 1 windows));
          ("shard.replications", float_of_int r.Parkernel.replications);
          ("shard.invalidations", float_of_int r.Parkernel.invalidations);
          ("shard.ipis", float_of_int r.Parkernel.ipis);
          ("shard.retries", float_of_int r.Parkernel.retries);
        ];
      witness =
        [
          ("sim_ns", string_of_int r.Parkernel.clock);
          ("events", string_of_int events);
          ("windows", string_of_int windows);
          ("words", string_of_int r.Parkernel.words);
          ("fingerprint", r.Parkernel.fingerprint);
        ];
    }
  in
  { name = "hosted-jacobi256"; work_unit = "events"; setup_only = None; run }

(* --- serve-open: the three transports back to back, open loop --- *)

let serve_tenants = 4
let serve_clients = 2
let serve_requests_per_client = 4_000
let serve_rate_rps = 1_000.0

let serve ~seed =
  let config = Config.butterfly_plus () in
  let params =
    Serve.params ~tenants:serve_tenants ~clients_per_tenant:serve_clients
      ~requests_per_client:serve_requests_per_client
      ~process:(Arrivals.Poisson { rate_rps = serve_rate_rps })
      ()
  in
  let expected = serve_tenants * serve_clients * serve_requests_per_client in
  (* Checksums depend on the interleaving, so they have no host oracle;
     the first rep's are the reference every later rep must reproduce. *)
  let reference = Hashtbl.create 3 in
  let run ~parent =
    let t_run = Trace.now_ns () in
    let cells =
      List.map
        (fun transport ->
          let name = Serve.transport_name transport in
          let t0 = Trace.now_ns () in
          let r =
            Trace.with_span ~parent ("serve." ^ name) (fun _ ->
                Serve.run ~config ~seed:(Int64.of_int seed) params transport)
          in
          (name, r, secs (Trace.now_ns () - t0)))
        Serve.all_transports
    in
    let run_s = secs (Trace.now_ns () - t_run) in
    let failures = ref [] and checks = ref 0 in
    let require ok fmt =
      Printf.ksprintf
        (fun msg ->
          incr checks;
          if not ok then failures := msg :: !failures)
        fmt
    in
    List.iter
      (fun (name, r, _) ->
        require (r.Serve.submitted = expected && r.Serve.completed = expected)
          "serve.%s: %d of %d requests completed (%d submitted)" name r.Serve.completed expected
          r.Serve.submitted;
        let sums = Array.map (fun (t : Serve.tenant_row) -> (t.submitted, t.completed, t.checksum)) r.Serve.per_tenant in
        Array.iteri
          (fun i (sub, comp, _) ->
            require (sub = comp) "serve.%s: tenant %d completed %d of %d" name i comp sub)
          sums;
        match Hashtbl.find_opt reference name with
        | None -> Hashtbl.replace reference name (sums, r.Serve.fingerprint)
        | Some (sums0, fp0) ->
          require (sums = sums0) "serve.%s: per-tenant checksums differ from the first run" name;
          require (r.Serve.fingerprint = fp0) "serve.%s: fingerprint differs from the first run"
            name)
      cells;
    let merged = Hist.create () in
    List.iter (fun (_, r, _) -> Hist.merge ~into:merged r.Serve.hist) cells;
    let completed = List.fold_left (fun a (_, r, _) -> a + r.Serve.completed) 0 cells in
    let us ns = float_of_int ns /. 1e3 in
    {
      setup_s = None;
      run_s;
      work = completed;
      sim_ns = List.fold_left (fun a (_, r, _) -> a + r.Serve.elapsed_ns) 0 cells;
      checks = !checks;
      failures = List.rev !failures;
      layers =
        List.concat_map
          (fun (name, r, s) ->
            let k m = Printf.sprintf "serve.%s.%s" name m in
            [
              (k "requests_per_s", float_of_int r.Serve.completed /. s);
              (k "p50_sim_us", us r.Serve.p50_ns);
              (k "p99_sim_us", us r.Serve.p99_ns);
              (k "p999_sim_us", us r.Serve.p999_ns);
              (k "retries", float_of_int r.Serve.retries);
            ])
          cells
        @ [
            ("serve.p50_sim_us", us (Hist.p50 merged));
            ("serve.p99_sim_us", us (Hist.p99 merged));
          ];
      witness =
        List.concat_map
          (fun (name, r, _) ->
            [ (name ^ ".elapsed_ns", string_of_int r.Serve.elapsed_ns); (name ^ ".fingerprint", r.Serve.fingerprint) ])
          cells;
    }
  in
  (* Serve.run builds its instance internally (as Runner.make), so set-up
     is timed on that same build, outside the run. *)
  let setup_only () =
    let t0 = Trace.now_ns () in
    let st = Runner.make ~config () in
    let t1 = Trace.now_ns () in
    ignore (Sys.opaque_identity st);
    secs (t1 - t0)
  in
  { name = "serve-open"; work_unit = "requests"; setup_only = Some setup_only; run }

let all = [ ("gauss-fig1", gauss); ("stencil-perword", stencil); ("hosted-jacobi256", hosted); ("serve-open", serve) ]
