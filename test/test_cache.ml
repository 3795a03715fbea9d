(* Tests for the UMA comparison substrate: caches, bus, memsys. *)

module Cache = Platinum_machine.Cache
module Uma_sys = Platinum_cache.Uma_sys
module Machine = Platinum_machine.Machine
module Config = Platinum_machine.Config
module Memsys = Platinum_kernel.Memsys
module Memtxn = Platinum_core.Memtxn
module Api = Platinum_kernel.Api
module Runner = Platinum_runner.Runner

(* --- Cache --- *)

let test_cache_miss_then_hit () =
  let c = Cache.create ~words:64 ~line_words:4 in
  Alcotest.(check bool) "cold miss" false (Cache.lookup c ~addr:10);
  Cache.fill c ~addr:10;
  Alcotest.(check bool) "hit after fill" true (Cache.lookup c ~addr:10);
  Alcotest.(check bool) "same line hits" true (Cache.lookup c ~addr:8);
  Alcotest.(check bool) "next line misses" false (Cache.lookup c ~addr:12)

let test_cache_direct_mapped_eviction () =
  let c = Cache.create ~words:16 ~line_words:4 in
  Cache.fill c ~addr:0;
  (* addr 16 maps to the same set (16-word cache, 4 lines). *)
  Cache.fill c ~addr:16;
  Alcotest.(check bool) "conflict evicted" false (Cache.lookup c ~addr:0);
  Alcotest.(check bool) "new line resident" true (Cache.lookup c ~addr:16)

let test_cache_invalidate () =
  let c = Cache.create ~words:64 ~line_words:4 in
  Cache.fill c ~addr:20;
  Cache.invalidate_line c ~addr:22;
  Alcotest.(check bool) "snooped out" false (Cache.lookup c ~addr:20);
  Cache.fill c ~addr:20;
  Cache.invalidate_line c ~addr:48 (* different line: no effect *);
  Alcotest.(check bool) "other line untouched" true (Cache.lookup c ~addr:20)

let test_cache_flush_and_counters () =
  let c = Cache.create ~words:16 ~line_words:4 in
  ignore (Cache.lookup c ~addr:0);
  Cache.fill c ~addr:0;
  ignore (Cache.lookup c ~addr:0);
  Cache.flush c;
  ignore (Cache.lookup c ~addr:0);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_bad_sizes () =
  Alcotest.(check bool) "non-power-of-two rejected" true
    (try
       ignore (Cache.create ~words:48 ~line_words:4);
       false
     with Invalid_argument _ -> true)

(* --- Uma_sys --- *)

let mk_uma ?(nprocs = 4) () =
  let config = Config.butterfly_plus ~nprocs ~page_words:64 () in
  let machine = Machine.create config in
  let uma = Uma_sys.create ~machine ~params:Uma_sys.sequent ~page_words:64 in
  (uma, Uma_sys.memsys uma)

let test_uma_read_write () =
  let _uma, ms = mk_uma () in
  let a = ms.Memsys.alloc ~zone:0 ~words:4 ~page_aligned:false in
  let l1 = Memsys.write ms ~aspace:0 ~now:0 ~proc:0 ~vaddr:a 42 in
  let v, _l2 = Memsys.read ms ~aspace:0 ~now:1_000_000 ~proc:0 ~vaddr:a in
  Alcotest.(check int) "round trip" 42 v;
  Alcotest.(check bool) "write cost > 0" true (l1 > 0)

let test_uma_hit_faster_than_miss () =
  let _uma, ms = mk_uma () in
  let a = ms.Memsys.alloc ~zone:0 ~words:4 ~page_aligned:false in
  let _, miss = Memsys.read ms ~aspace:0 ~now:0 ~proc:1 ~vaddr:a in
  let _, hit = Memsys.read ms ~aspace:0 ~now:1_000_000 ~proc:1 ~vaddr:a in
  Alcotest.(check bool) "miss slower than hit" true (miss > hit);
  Alcotest.(check int) "hit = t_hit" Uma_sys.sequent.Uma_sys.t_hit hit

let test_uma_coherence_via_snooping () =
  let _uma, ms = mk_uma () in
  let a = ms.Memsys.alloc ~zone:0 ~words:4 ~page_aligned:false in
  ignore (Memsys.write ms ~aspace:0 ~now:0 ~proc:0 ~vaddr:a 1);
  let v1, _ = Memsys.read ms ~aspace:0 ~now:10_000 ~proc:1 ~vaddr:a in
  Alcotest.(check int) "first read" 1 v1;
  (* proc 0 writes again; proc 1's cached line must be invalidated. *)
  ignore (Memsys.write ms ~aspace:0 ~now:20_000 ~proc:0 ~vaddr:a 2);
  let v2, lat = Memsys.read ms ~aspace:0 ~now:30_000 ~proc:1 ~vaddr:a in
  Alcotest.(check int) "stale line invalidated" 2 v2;
  Alcotest.(check bool) "and it was a miss" true (lat > Uma_sys.sequent.Uma_sys.t_hit)

let test_uma_bus_contention () =
  let _uma, ms = mk_uma () in
  (* Two simultaneous misses: the second queues on the bus. *)
  let a = ms.Memsys.alloc ~zone:0 ~words:64 ~page_aligned:true in
  let _, l1 = Memsys.read ms ~aspace:0 ~now:0 ~proc:0 ~vaddr:a in
  let _, l2 = Memsys.read ms ~aspace:0 ~now:0 ~proc:1 ~vaddr:(a + 32) in
  Alcotest.(check bool) "second waits for the bus" true (l2 > l1)

let test_uma_block_ops () =
  let _uma, ms = mk_uma () in
  let a = ms.Memsys.alloc ~zone:0 ~words:100 ~page_aligned:true in
  let data = Array.init 100 (fun i -> i * 2) in
  ignore
    (ms.Memsys.submit ~aspace:0 ~now:0 ~proc:0
       (Memtxn.Block_write { vaddr = a; data; src_off = 0; len = 100 }));
  let got = Array.make 100 0 in
  ignore
    (ms.Memsys.submit ~aspace:0 ~now:1_000_000 ~proc:2
       (Memtxn.Block_read { vaddr = a; len = 100; dst = got; dst_off = 0 }));
  Alcotest.(check (array int)) "block round trip" data got

let test_uma_rmw () =
  let _uma, ms = mk_uma () in
  let a = ms.Memsys.alloc ~zone:0 ~words:1 ~page_aligned:false in
  ignore (Memsys.write ms ~aspace:0 ~now:0 ~proc:0 ~vaddr:a 5);
  let old, _ = Memsys.rmw ms ~aspace:0 ~now:10_000 ~proc:1 ~vaddr:a (fun v -> v + 1) in
  Alcotest.(check int) "old" 5 old;
  let v, _ = Memsys.read ms ~aspace:0 ~now:20_000 ~proc:2 ~vaddr:a in
  Alcotest.(check int) "incremented" 6 v

(* Segments on the flat UMA machine: every "space" maps them at the same
   base (one physical space). *)
let test_uma_segments_flat () =
  let bases = ref (0, 1) in
  Runner.time_uma ~nprocs:2 (fun () ->
      let seg = Api.new_segment "s" ~pages:1 in
      let b1 = Api.map_segment seg in
      Api.write b1 9;
      let other = Api.new_aspace () in
      let b2 = ref 0 and v2 = ref 0 in
      let t = Api.spawn ~proc:1 ~aspace:other (fun () ->
          b2 := Api.map_segment seg;
          v2 := Api.read !b2) in
      Api.join t;
      bases := (b1, !b2);
      Alcotest.(check int) "shared value visible" 9 !v2)
  |> ignore;
  let b1, b2 = !bases in
  Alcotest.(check int) "same base in both (flat memory)" b1 b2

(* A whole program through the kernel on the UMA machine. *)
let test_uma_kernel_program () =
  let sum = ref 0 in
  let r =
    Runner.time_uma ~nprocs:4 (fun () ->
        let a = Api.alloc_pages 1 in
        Api.block_write a (Array.init 100 (fun i -> i));
        let part = Api.alloc 4 in
        let worker me =
          let chunk = Api.block_read (a + (me * 25)) 25 in
          Api.write (part + me) (Array.fold_left ( + ) 0 chunk)
        in
        Api.spawn_join_all ~procs:[ 0; 1; 2; 3 ] (List.init 4 (fun me _ -> worker me));
        sum := List.fold_left (fun acc i -> acc + Api.read (part + i)) 0 [ 0; 1; 2; 3 ])
  in
  Alcotest.(check int) "parallel sum on UMA" 4950 !sum;
  Alcotest.(check bool) "time advanced" true (r.Runner.uma_elapsed > 0)

let suite =
  [
    ("cache: miss then hit", `Quick, test_cache_miss_then_hit);
    ("cache: direct-mapped eviction", `Quick, test_cache_direct_mapped_eviction);
    ("cache: snoop invalidation", `Quick, test_cache_invalidate);
    ("cache: flush and counters", `Quick, test_cache_flush_and_counters);
    ("cache: size validation", `Quick, test_cache_bad_sizes);
    ("uma: read/write", `Quick, test_uma_read_write);
    ("uma: hits faster than misses", `Quick, test_uma_hit_faster_than_miss);
    ("uma: coherence via snooping", `Quick, test_uma_coherence_via_snooping);
    ("uma: bus contention", `Quick, test_uma_bus_contention);
    ("uma: block operations", `Quick, test_uma_block_ops);
    ("uma: rmw", `Quick, test_uma_rmw);
    ("uma: segments are flat", `Quick, test_uma_segments_flat);
    ("uma: kernel program end-to-end", `Quick, test_uma_kernel_program);
  ]
