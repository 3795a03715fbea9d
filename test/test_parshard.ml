(* The sharded driver (Sim.Shard) and the workloads it hosts: the
   message-level mesh workloads (Platinum_scale.Scale) and the per-node
   kernels (Platinum_scale.Parkernel), each node on its own Engine.t.

   The load-bearing contract: a sharded run is a pure function of the
   workload parameters — the shard count and domain count never change a
   single byte of the result.  We pin that by fingerprint across a
   shards x domains grid, for every workload, with the window self-checks
   armed, and again with the fault plane injecting at 2% (so the IPI-retry
   and RPC-retransmission recovery paths are inside the determinism
   envelope, not outside it).  The mesh workloads' fingerprints are also
   pinned to fixed values. *)

module Engine = Platinum_sim.Engine
module Shard = Platinum_sim.Shard
module Config = Platinum_machine.Config
module Scale = Platinum_scale.Scale

(* Grids kept modest: the full matrix runs under alcotest Quick.  24 is
   the node count of [small]: one engine per shard. *)
let shard_counts = [ 1; 2; 8; 24 ]
let domain_counts = [ 1; 2; 4 ]

let small = Config.hierarchical ~cluster_size:4 ~nodes:24 ()

(* --- Shard mechanics, on bare per-node engines --- *)

(* [n] fresh engines hosted as one group; node [i] is [engines.(i)]. *)
let hosted ?check ~nodes ~shards ~lookahead () =
  let engines = Array.init nodes (fun _ -> Engine.create ()) in
  (engines, Shard.host ?check ~shards ~lookahead engines)

let test_shard_basics () =
  let engines, sh = hosted ~check:true ~nodes:8 ~shards:4 ~lookahead:1_000 () in
  Alcotest.(check int) "nodes" 8 (Shard.nodes sh);
  Alcotest.(check int) "shards" 4 (Shard.shards sh);
  Alcotest.(check int) "node 0 on shard 0" 0 (Shard.shard_of_node sh 0);
  Alcotest.(check int) "node 7 on shard 3" 3 (Shard.shard_of_node sh 7);
  let log = ref [] in
  let record k e () = log := (k, Engine.now e) :: !log in
  Engine.schedule_after engines.(0) ~delay:10 (record `A engines.(0));
  Engine.schedule_after engines.(7) ~delay:5 (record `B engines.(7));
  Engine.post engines.(0) ~src:0 ~dst:7 ~delay:1_000 (record `C engines.(7));
  Shard.run sh;
  Alcotest.(check int) "three events" 3 (Shard.events sh);
  Alcotest.(check (list (pair bool int)))
    "delivery times in order"
    [ (true, 5); (true, 10); (false, 1_000) ]
    (List.rev_map (fun (k, t) -> (k <> `C, t)) !log
    |> List.sort (fun (_, a) (_, b) -> compare a b))

let test_shard_clamps_to_nodes () =
  let _, sh = hosted ~nodes:3 ~shards:16 ~lookahead:100 () in
  Alcotest.(check int) "shards clamped to node count" 3 (Shard.shards sh)

let test_post_under_lookahead_rejected () =
  let engines, sh = hosted ~nodes:4 ~shards:2 ~lookahead:5_000 () in
  (* Enforced even for a same-shard pair (nodes 0 and 1 both live on
     shard 0), so legality never depends on the shard count. *)
  Alcotest.check_raises "cross-node post under the lookahead"
    (Invalid_argument "Shard.host: cross-node delay 4999 below lookahead 5000")
    (fun () -> Engine.post engines.(0) ~src:0 ~dst:1 ~delay:4_999 ignore);
  (* src = dst is node-local scheduling: no lookahead constraint. *)
  Engine.post engines.(0) ~src:0 ~dst:0 ~delay:1 ignore;
  Shard.run sh;
  Alcotest.(check int) "local post delivered" 1 (Shard.events sh)

(* A cross-shard ping-pong whose event count and final clock are exact:
   hand-checkable conservative-window behaviour. *)
let test_shard_ping_pong () =
  let run ~shards ~domains =
    let engines, sh = hosted ~check:true ~nodes:4 ~shards ~lookahead:100 () in
    let hops = ref 0 in
    let rec ping src dst () =
      if !hops < 50 then begin
        incr hops;
        Engine.post engines.(src) ~src ~dst ~delay:100 (ping dst src)
      end
    in
    Engine.schedule_after engines.(0) ~delay:0 (ping 0 3);
    Shard.run ~domains sh;
    (!hops, Shard.events sh, Shard.clock sh, Shard.windows sh)
  in
  let h, e, c, _ = run ~shards:1 ~domains:1 in
  Alcotest.(check int) "50 hops" 50 h;
  Alcotest.(check int) "51 events" 51 e;
  (* Last delivery at 50 x 100 ns, inside the final window [5000, 5100).
     A window runs its engines up to its end minus one (Engine.run_until
     is inclusive), and Shard.run leaves every clock there: 5099, not the
     window end. *)
  Alcotest.(check int) "clock = final window end - 1" 5_099 c;
  let h4, e4, c4, _ = run ~shards:4 ~domains:2 in
  Alcotest.(check (list int))
    "identical at 4 shards / 2 domains" [ h; e; c ] [ h4; e4; c4 ]

(* A sparse group: 256 engines, of which two ping-pong across the group
   and one holds nothing but a daemon.  The daemon's ticks still cut
   windows (the minimum covers every pending event), and the 253 idle
   engines never run — yet every clock, theirs included, must end at the
   last window's end minus one.  Pings land every 300 ns and ticks every
   250 ns, with a 100 ns window: per 1500 ns that is 8 windows (0, 250
   with the ping at 300, 500, 600, 750, 900, 1000, 1200 with the tick at
   1250), so 10 periods up to the last ping at 15000, plus its window. *)
let test_shard_sparse_group () =
  let run ~shards ~domains =
    let engines, sh = hosted ~check:true ~nodes:256 ~shards ~lookahead:100 () in
    let hops = ref 0 and ticks = ref 0 in
    let rec ping src dst () =
      if !hops < 50 then begin
        incr hops;
        Engine.post engines.(src) ~src ~dst ~delay:300 (ping dst src)
      end
      else incr hops
    in
    Engine.schedule_after engines.(0) ~delay:0 (ping 0 255);
    Engine.every engines.(128) ~daemon:true ~period:250 (fun () ->
        incr ticks;
        true);
    Shard.run ~domains sh;
    let clocks = Array.map Engine.now engines in
    Alcotest.(check bool)
      (Printf.sprintf "s=%d d=%d: every clock at the last window end - 1" shards domains)
      true
      (Array.for_all (( = ) 15_099) clocks);
    [ !hops; !ticks; Shard.events sh; Shard.windows sh; Shard.clock sh ]
  in
  let expected = [ 51; 60; 111; 81; 15_099 ] in
  List.iter
    (fun shards ->
      List.iter
        (fun domains ->
          Alcotest.(check (list int))
            (Printf.sprintf "hops, ticks, events, windows, clock at s=%d d=%d" shards domains)
            expected (run ~shards ~domains))
        [ 1; 2 ])
    [ 1; 2; 256 ]

(* --- byte-identical fingerprints across the grid --- *)

let fingerprint_grid ?(inject_rate = 0.0) ~check workload =
  List.concat_map
    (fun shards ->
      List.map
        (fun domains ->
          let r =
            Scale.run ~check ~shards ~domains ~inject_rate ~seed:7L
              ~ops_per_node:30 ~config:small workload
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s s=%d d=%d made progress" r.Scale.workload shards
               domains)
            true
            (r.Scale.events > 0 && r.Scale.clock > 0);
          Printf.sprintf "%s events=%d windows=%d clock=%d fp=%s" r.Scale.workload
            r.Scale.events r.Scale.windows r.Scale.clock r.Scale.fingerprint)
        domain_counts)
    shard_counts

let check_grid_identical name lines =
  match lines with
  | [] -> Alcotest.fail "empty grid"
  | baseline :: _ ->
    Alcotest.(check (list string))
      name
      (List.map (fun _ -> baseline) lines)
      lines

(* The pinned fingerprints of the grid's cells (small, seed 7, 30 ops),
   clean and at 2% injection: every cell must reproduce them. *)
let golden = function
  | Scale.Traffic -> ("ac31750d2de0e75c", "6cda1a2a9eca7cfb")
  | Scale.Storm -> ("74a37ccb7ec8f7bb", "4c94b85d30cd1927")
  | Scale.Echo -> ("65cb27c6a66faf9a", "8665fc75590a0eea")
  | Scale.Serve -> ("e9d43ec6d1bc5d68", "e0ec99d80959da5c")

let check_golden fp lines =
  List.iter
    (fun line ->
      Alcotest.(check string)
        "pinned fingerprint" fp
        (String.sub line (String.length line - 16) 16))
    lines

let test_workload_deterministic workload () =
  (* check:true = the PLATINUM_CHECK window monitors are armed in every
     cell; a violation raises and fails the test. *)
  let lines = fingerprint_grid ~check:true workload in
  check_grid_identical "fingerprint identical across shards x domains" lines;
  check_golden (fst (golden workload)) lines

let test_workload_deterministic_injected workload () =
  let lines = fingerprint_grid ~check:true ~inject_rate:0.02 workload in
  check_grid_identical "fingerprint identical under 2% fault injection" lines;
  check_golden (snd (golden workload)) lines

let test_injection_exercises_recovery () =
  (* At 2% over enough ops the adversary must actually fire — otherwise
     the injected grid above degenerates to the clean one. *)
  let storm =
    Scale.run ~inject_rate:0.02 ~seed:7L ~ops_per_node:60 ~config:small
      Scale.Storm
  in
  Alcotest.(check bool) "storm faults injected" true (storm.Scale.faults > 0);
  Alcotest.(check bool) "shootdown retries taken" true (storm.Scale.retries > 0);
  let echo =
    Scale.run ~inject_rate:0.02 ~seed:7L ~ops_per_node:60 ~config:small
      Scale.Echo
  in
  Alcotest.(check bool) "rpc retransmissions taken" true (echo.Scale.retries > 0)

let test_clean_vs_injected_differ () =
  let fp rate =
    (Scale.run ~inject_rate:rate ~seed:7L ~ops_per_node:30 ~config:small
       Scale.Storm)
      .Scale.fingerprint
  in
  Alcotest.(check bool) "2% injection perturbs the run" true (fp 0.0 <> fp 0.02)

let test_hierarchical_topology_visible () =
  (* On a clustered machine some traffic must cross the fabric, and the
     cross surcharge must show up against a flat machine of equal size. *)
  let r = Scale.run ~seed:7L ~ops_per_node:30 ~config:small Scale.Traffic in
  Alcotest.(check bool) "cross-fabric accesses occurred" true (r.Scale.cross > 0);
  Alcotest.(check bool) "remote accesses occurred" true
    (r.Scale.remote > r.Scale.cross);
  let flat = Config.hierarchical ~cluster_size:24 ~nodes:24 () in
  let rf = Scale.run ~seed:7L ~ops_per_node:30 ~config:flat Scale.Traffic in
  Alcotest.(check int) "flat machine sees no cross traffic" 0 rf.Scale.cross;
  Alcotest.(check bool) "cross surcharge raises mean latency" true
    (r.Scale.avg_latency_ns > rf.Scale.avg_latency_ns)

(* --- the hosted kernel: full per-node kernel simulations under Shard ---

   Same contract, harder cargo: Parkernel runs one complete Kernel.t per
   node with the coherence protocol decomposed into mailbox messages
   (DESIGN.md §4j).  The fingerprint covers every node's counters, engine
   history, module statistics, fault plane and home-page contents — pinned
   across the same shards x domains grid, clean and at 2% injection, with
   the window monitors armed (shard-local sweeps: each node's state is
   touched only by its own engine's events). *)

module Parkernel = Platinum_scale.Parkernel

let kernel_config = Config.hierarchical ~cluster_size:4 ~nodes:8 ()

let kernel_grid ?(inject_rate = 0.0) workload =
  List.concat_map
    (fun shards ->
      List.map
        (fun domains ->
          let r =
            Parkernel.run ~check:true ~shards ~domains ~inject_rate ~seed:7L
              ~iters:4 ~ops_per_node:12 ~width:64 ~config:kernel_config workload
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s s=%d d=%d verified against the oracle"
               r.Parkernel.workload shards domains)
            true r.Parkernel.verified;
          Printf.sprintf "%s events=%d windows=%d clock=%d fp=%s"
            r.Parkernel.workload r.Parkernel.events r.Parkernel.windows
            r.Parkernel.clock r.Parkernel.fingerprint)
        domain_counts)
    shard_counts

let test_kernel_deterministic workload () =
  kernel_grid workload
  |> check_grid_identical "kernel fingerprint identical across shards x domains"

let test_kernel_deterministic_injected workload () =
  kernel_grid ~inject_rate:0.02 workload
  |> check_grid_identical "kernel fingerprint identical under 2% fault injection"

let test_kernel_injection_bites () =
  (* the injected grid must not degenerate to the clean one *)
  let r =
    Parkernel.run ~check:true ~inject_rate:0.02 ~seed:7L ~iters:4 ~ops_per_node:12
      ~width:64 ~config:kernel_config Parkernel.Jacobi
  in
  Alcotest.(check bool) "faults injected" true (r.Parkernel.faults > 0);
  let clean =
    Parkernel.run ~check:true ~seed:7L ~iters:4 ~ops_per_node:12 ~width:64
      ~config:kernel_config Parkernel.Jacobi
  in
  Alcotest.(check bool) "injection perturbs the kernel run" true
    (r.Parkernel.fingerprint <> clean.Parkernel.fingerprint)

let test_kernel_protocol_exercised () =
  let j =
    Parkernel.run ~check:true ~seed:7L ~iters:4 ~width:64 ~config:kernel_config
      Parkernel.Jacobi
  in
  Alcotest.(check bool) "jacobi replicates pages" true (j.Parkernel.replications > 0);
  Alcotest.(check bool) "jacobi shoots down replicas" true (j.Parkernel.shootdowns > 0);
  Alcotest.(check bool) "shootdowns send IPIs" true
    (j.Parkernel.ipis >= j.Parkernel.shootdowns);
  let e =
    Parkernel.run ~check:true ~seed:7L ~ops_per_node:12 ~config:kernel_config
      Parkernel.Rpc_echo
  in
  Alcotest.(check int) "echo completes every round trip" (4 * 12) e.Parkernel.rpcs

let test_kernel_gb_span_sparse () =
  (* a 2^27-word address span must cost only the touched footprint and
     set up fast — the chunked-table contract *)
  let t0 = Sys.time () in
  let r =
    Parkernel.run ~check:true ~shards:4 ~domains:2 ~iters:2 ~width:64
      ~span_words:(1 lsl 27) ~config:kernel_config Parkernel.Jacobi
  in
  let setup_ms = (Sys.time () -. t0) *. 1000. in
  Alcotest.(check bool) "span covers 2^27 words" true (r.Parkernel.span_words >= 1 lsl 27);
  Alcotest.(check bool) "verified at GB span" true r.Parkernel.verified;
  Alcotest.(check bool)
    (Printf.sprintf "touched pages stay proportional to rows (%d)" r.Parkernel.touched_pages)
    true
    (r.Parkernel.touched_pages <= 8 + 4);
  Alcotest.(check bool) (Printf.sprintf "setup under 100ms (%.1f)" setup_ms) true (setup_ms < 100.)

let suite =
  let det w =
    ( Printf.sprintf "golden: %s fingerprint across shards x domains"
        (Scale.workload_name w),
      `Quick,
      test_workload_deterministic w )
  in
  let det_inj w =
    ( Printf.sprintf "golden: %s fingerprint under 2%% injection"
        (Scale.workload_name w),
      `Quick,
      test_workload_deterministic_injected w )
  in
  [
    ("shard: basics", `Quick, test_shard_basics);
    ("shard: shard count clamps to nodes", `Quick, test_shard_clamps_to_nodes);
    ("shard: lookahead enforcement", `Quick, test_post_under_lookahead_rejected);
    ("shard: cross-shard ping-pong", `Quick, test_shard_ping_pong);
    ("shard: sparse group runs only busy engines", `Quick, test_shard_sparse_group);
  ]
  @ List.map det Scale.all_workloads
  @ List.map det_inj Scale.all_workloads
  @ [
      ("scale: injection exercises recovery", `Quick, test_injection_exercises_recovery);
      ("scale: injection perturbs the run", `Quick, test_clean_vs_injected_differ);
      ("scale: topology visible in traffic", `Quick, test_hierarchical_topology_visible);
    ]
  @ List.map
      (fun w ->
        ( Printf.sprintf "golden: kernel %s fingerprint across shards x domains"
            (Parkernel.workload_name w),
          `Quick,
          test_kernel_deterministic w ))
      Parkernel.all_workloads
  @ List.map
      (fun w ->
        ( Printf.sprintf "golden: kernel %s fingerprint under 2%% injection"
            (Parkernel.workload_name w),
          `Quick,
          test_kernel_deterministic_injected w ))
      [ Parkernel.Jacobi; Parkernel.Rpc_echo ]
  @ [
      ("kernel: injection perturbs the hosted run", `Quick, test_kernel_injection_bites);
      ("kernel: coherence protocol exercised", `Quick, test_kernel_protocol_exercised);
      ("kernel: GB-span address space stays sparse", `Quick, test_kernel_gb_span_sparse);
    ]
