(* Host-side throughput and allocation behaviour of the memory hot path.

   The Memtxn layer exists to cut the simulator's own cost per simulated
   word: a per-word access stream pays one effect trap, one Memsys submit,
   one translation and one interconnect charge for every word, while a
   batched stream pays them once per transaction (the translation once per
   page run).  This experiment measures wall-clock words/second on the same
   Jacobi-style stencil sweep expressed both ways — the simulated traffic
   is identical; only the trap granularity differs — and records the result
   in BENCH_hotpath.json.

   Since the coalescing fast path (DESIGN.md section 4g) the per-word
   stream no longer pays a full suspend per word: while a fiber is armed,
   consecutive micro-ATC hits drain inline and are charged as one batched
   operation at the next effect boundary, and a run of local words is
   booked at its memory module as one acquisition (the local lane).  The
   experiment gates that ratchet: the per-word stream must stay within 6x
   of the batched stream (the seed measured 17.9x, the per-word-charged
   coalescer 8-12x; the residual gap is one closure call, one slot check
   and one frame access per word, where a block descriptor moves a whole
   page run per trap).

   It also doubles as the allocation-budget gate: it measures
   [Gc.minor_words] deltas per access on three paths — the raw scratch
   driver ([Coherent.read_word_s]/[write_word_s]), the per-word Api stream,
   and the batched Api stream — and exits non-zero if the steady-state hit
   exceeds its budget (2 minor words/access; target 0) or the coalesced
   per-word stream exceeds its own (4 minor words/access). *)

module Api = Platinum_kernel.Api
module Config = Platinum_machine.Config
module Machine = Platinum_machine.Machine
module Engine = Platinum_sim.Engine
module Runner = Platinum_runner.Runner
module Policy = Platinum_core.Policy
module Rights = Platinum_core.Rights
module Cmap = Platinum_core.Cmap
module Coherent = Platinum_core.Coherent

(* One stencil sweep: every interior row r is recomputed from rows r-1,
   r, r+1 of the source buffer into the destination buffer, [iters] times,
   rows block-partitioned over [nprocs] workers (no barriers: we measure
   host throughput, not the numeric fixed point). *)
let sweep ~per_word ~n ~iters ~nprocs () =
  let words = n * n in
  let buf_a = Api.alloc ~page_aligned:true words in
  let buf_b = Api.alloc ~page_aligned:true words in
  let interior = n - 2 in
  let lo me = 1 + (me * interior / nprocs) in
  let hi me = 1 + (((me + 1) * interior / nprocs) - 1) in
  let worker me =
    let src = ref buf_a and dst = ref buf_b in
    for _iter = 1 to iters do
      for r = lo me to hi me do
        if per_word then begin
          for j = 0 to n - 1 do
            let above = Api.read (!src + ((r - 1) * n) + j) in
            let here = Api.read (!src + (r * n) + j) in
            let below = Api.read (!src + ((r + 1) * n) + j) in
            Api.write (!dst + (r * n) + j) ((above + here + below) / 3)
          done
        end
        else begin
          let tri = Api.block_read (!src + ((r - 1) * n)) (3 * n) in
          let fresh =
            Array.init n (fun j -> (tri.(j) + tri.(n + j) + tri.((2 * n) + j)) / 3)
          in
          Api.block_write (!dst + (r * n)) fresh
        end
      done;
      let tmp = !src in
      src := !dst;
      dst := tmp
    done
  in
  Api.spawn_join_all
    ~procs:(List.init nprocs (fun i -> i))
    (List.init nprocs (fun me _ -> worker me))

(* Data words the sweep moves: 3n read + n written per interior row. *)
let sweep_words ~n ~iters = iters * (n - 2) * 4 * n

(* One wall-clock run on a fresh simulator instance, plus the minor-heap
   words the whole stream allocates per data word ([Gc.minor_words] is
   sampled outside the run so the measurement itself is not in the
   window) and the coalescer's statistics. *)
let measure ~per_word ~n ~iters ~nprocs =
  let config = Config.butterfly_plus ~nprocs () in
  let fp = Platinum_kernel.Fastpath.ctx () in
  Platinum_kernel.Fastpath.reset_stats fp;
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  ignore (Runner.time ~config (sweep ~per_word ~n ~iters ~nprocs));
  let dt = Unix.gettimeofday () -. t0 in
  let mwords = Gc.minor_words () -. m0 in
  let st = Platinum_kernel.Fastpath.stats fp in
  ( dt,
    mwords /. float_of_int (sweep_words ~n ~iters),
    ( st.Platinum_kernel.Fastpath.runs,
      st.Platinum_kernel.Fastpath.coalesced,
      st.Platinum_kernel.Fastpath.fallbacks ) )

(* Best of [reps] runs of each stream, alternating one of each so a drift
   in host speed (the shared development host's speed moves in phases)
   hits both alike; allocation and coalescing are those of the last run. *)
let measure_alternating ~n ~iters ~nprocs ~reps =
  let merge (w, _, _) (w', m', s') = (Float.min w w', m', s') in
  let word = ref (infinity, 0.0, (0, 0, 0)) and txn = ref (infinity, 0.0, (0, 0, 0)) in
  for _ = 1 to reps do
    word := merge !word (measure ~per_word:true ~n ~iters ~nprocs);
    txn := merge !txn (measure ~per_word:false ~n ~iters ~nprocs)
  done;
  (!word, !txn)

(* --- the steady-state hit, measured bare ---

   A single-page, single-processor access stream driven straight through
   the scratch entry points, with the aspace active and the translation
   warm: every access is the pure ATC-hit path the zero-alloc contract
   covers (no effect handlers, no kernel, no Memtxn splitting).  Reads and
   writes alternate; the page stays single-copy so writes never fault. *)
let measure_steady ~ops =
  let config = Config.butterfly_plus ~nprocs:4 ~page_words:1024 () in
  let policy =
    Policy.make ~t1:config.Config.t1_freeze_window (Policy.Platinum { thaw_on_fault = false })
  in
  let coh =
    Coherent.create (Machine.create config) ~engine:(Engine.create ()) ~policy
      ~frames_per_module:64 ()
  in
  let cm = Coherent.new_aspace coh in
  let page = Coherent.new_cpage coh () in
  Coherent.bind coh cm ~vpage:0 page Rights.Read_write;
  ignore (Coherent.activate coh ~now:0 ~proc:0 ~aspace:(Cmap.aspace cm));
  (* Fault the translation in (write access: full rights from the start). *)
  ignore (Coherent.write_word coh ~now:0 ~proc:0 ~cmap:cm ~vaddr:0 1);
  let sc = Coherent.make_scratch () in
  (* Warm-up: promote any lazily-built structure before the window. *)
  for i = 1 to 1_000 do
    ignore (Coherent.read_word_s coh sc ~now:(i * 1_000) ~proc:0 ~cmap:cm ~vaddr:0)
  done;
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 1 to ops do
    let now = (1_000 + i) * 1_000 in
    if i land 1 = 0 then ignore (Coherent.read_word_s coh sc ~now ~proc:0 ~cmap:cm ~vaddr:0)
    else Coherent.write_word_s coh sc ~now ~proc:0 ~cmap:cm ~vaddr:0 i
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let dm = Gc.minor_words () -. m0 in
  (dt, dm /. float_of_int ops)

let run (scale : Exp_common.scale) =
  Exp_common.section "throughput: wall-clock words/second of the memory hot path";
  let n = if scale.Exp_common.full then 384 else 256 in
  let iters = if scale.Exp_common.full then 8 else 4 in
  let nprocs = 4 and reps = 5 in
  let words = sweep_words ~n ~iters in
  let (wall_word, mwpa_word, (runs, coalesced, fallbacks)), (wall_txn, mwpa_txn, _) =
    measure_alternating ~n ~iters ~nprocs ~reps
  in
  let steady_ops = 1_000_000 in
  let steady_wall, mwpa_steady = measure_steady ~ops:steady_ops in
  let rate w = float_of_int words /. w in
  let speedup = rate wall_txn /. rate wall_word in
  let attempts = coalesced + fallbacks in
  let coalesce_frac = if attempts = 0 then 0.0 else float_of_int coalesced /. float_of_int attempts in
  Printf.printf "  %d x %d grid, %d iterations, %d procs, %d data words\n" n n iters nprocs
    words;
  Printf.printf "  per-word stream: %.3f s wall  (%.0f words/s)\n" wall_word (rate wall_word);
  Printf.printf "  batched stream:  %.3f s wall  (%.0f words/s)\n" wall_txn (rate wall_txn);
  Printf.printf "  batched / per-word throughput: %.1fx\n" speedup;
  Printf.printf "  coalescing: %d runs, %d words inline, %d fallbacks (%.1f%% coalesced)\n"
    runs coalesced fallbacks (100.0 *. coalesce_frac);
  Printf.printf "  minor words/access: steady hit %.3f, per-word stream %.1f, batched %.1f\n"
    mwpa_steady mwpa_word mwpa_txn;
  Printf.printf "  steady-state driver: %d accesses in %.3f s (%.0f accesses/s)\n" steady_ops
    steady_wall (float_of_int steady_ops /. steady_wall);
  Exp_common.check_shape "batched stream moves >= 2x words/sec" (speedup >= 2.0);
  (* The coalescing ratchet (DESIGN.md section 4g): the seed's per-word
     stream trailed the batched stream by 17.9x, the coalescer with
     per-word module charging by 8-12x; with local runs booked once per
     module segment the gap must stay within 6x.  (Remote words, rmws and
     cached configurations still pay the per-word interconnect
     simulation.) *)
  let ratio_limit = 6.0 in
  let ratio_ok = speedup <= ratio_limit in
  Exp_common.check_shape
    (Printf.sprintf "per-word stream within %.0fx of batched (seed: 17.9x)" ratio_limit)
    ratio_ok;
  (* The allocation budgets (DESIGN.md sections 4e, 4g): a steady-state
     hit may allocate at most 2 minor words (target 0), and the coalesced
     per-word Api stream at most 4 per access (the seed's instrumented
     stream allocated ~25). *)
  let budget = 2.0 and word_budget = 4.0 in
  let budget_ok = mwpa_steady <= budget in
  let word_budget_ok = mwpa_word <= word_budget in
  Exp_common.check_shape
    (Printf.sprintf "steady-state hit allocates <= %.0f minor words/access" budget)
    budget_ok;
  Exp_common.check_shape
    (Printf.sprintf "per-word stream allocates <= %.0f minor words/access" word_budget)
    word_budget_ok;
  let all_ok = ratio_ok && budget_ok && word_budget_ok in
  let oc = open_out "BENCH_hotpath.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"hotpath\",\n\
    \  \"host\": %s,\n\
    \  \"grid\": %d,\n\
    \  \"iters\": %d,\n\
    \  \"nprocs\": %d,\n\
    \  \"data_words\": %d,\n\
    \  \"per_word\": { \"wall_s\": %.6f, \"words_per_sec\": %.0f },\n\
    \  \"batched\": { \"wall_s\": %.6f, \"words_per_sec\": %.0f },\n\
    \  \"throughput_ratio\": %.2f,\n\
    \  \"ratio_budget\": { \"limit\": %.1f, \"seed\": 17.9, \"ok\": %b },\n\
    \  \"coalescing\": { \"runs\": %d, \"words_inline\": %d, \"fallbacks\": %d, \
     \"fraction\": %.4f },\n\
    \  \"steady_state\": { \"ops\": %d, \"wall_s\": %.6f, \"accesses_per_sec\": %.0f },\n\
    \  \"minor_words_per_access\": { \"steady_hit\": %.4f, \"per_word_stream\": %.2f, \
     \"batched_stream\": %.2f },\n\
    \  \"alloc_budget\": { \"steady_limit\": %.1f, \"per_word_limit\": %.1f, \"ok\": %b }\n\
     }\n"
    (Exp_common.host_json ()) n iters nprocs words wall_word (rate wall_word) wall_txn
    (rate wall_txn) speedup ratio_limit ratio_ok runs coalesced fallbacks coalesce_frac
    steady_ops steady_wall
    (float_of_int steady_ops /. steady_wall)
    mwpa_steady mwpa_word mwpa_txn budget word_budget
    (budget_ok && word_budget_ok);
  close_out oc;
  Printf.printf "  wrote BENCH_hotpath.json\n%!";
  if not all_ok then begin
    Printf.printf
      "  GATE FAILED: ratio=%.1fx (limit %.1f), steady=%.3f (limit %.1f), per-word=%.1f \
       (limit %.1f)\n\
       %!"
      speedup ratio_limit mwpa_steady budget mwpa_word word_budget;
    exit 1
  end
