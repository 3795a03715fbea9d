(* The coalescing effect-boundary fast path (DESIGN.md §4g).

   A per-word [Api.read]/[write]/[rmw] stream pays one [Effect.perform]
   and one full kernel dispatch per word, even though PR 5 made the
   memory-system hit itself allocation-free — the 17.9× gap between the
   per-word and batched streams is pure trap overhead.  This module lets
   the kernel *arm* the current fiber before transferring control into
   user code: while armed, [Api.read] and friends drain consecutive word
   accesses inline — no effect, no suspend — provided each one would hit
   the micro-ATC under the seed semantics (translation present, rights
   sufficient, page not frozen, monitor disarmed, no injected fault
   pending).  The accumulated latency is charged as a single batched
   operation when the fiber next performs any effect (the kernel's
   [settle]), exactly what a block descriptor covering the same words
   would pay; anything else — a miss, a rights fault, a frozen page, an
   armed monitor, a pending fault draw, quantum exhaustion — declines and
   falls back to the unchanged full-suspend path.

   Soundness rests on a property of the engine: the fiber runs inline
   within the engine event that resumed it, so no other simulation event
   can fire between the arm point and the settle point.  Coalesced words
   execute physically at the event time [base] but are charged at
   [base + acc]; per-thread charge timelines are identical to the seed,
   and a one-word run is byte-identical to it (the seed's submit is also
   synchronous at the same engine time).

   The context is per-domain ([Domain.DLS]) because fibers execute on the
   domain that resumed them and grid-parallel sweeps run one simulation
   per domain; the run-buffer slots are per-thread (they live in the
   kernel thread record) so cached page probes survive suspensions
   without leaking between threads.  Slots are validated against a global
   epoch the coherent layer bumps on every remap, freeze, thaw, shootdown
   or monitor change — the invalidation hooks that flush in-flight state
   when the directory moves underneath it.

   The local lane.  Most coalesced words are local hits, and for those the
   per-word simulation is pure overhead: with the caches off and no live
   fault plane, a local read or write costs [t_local_word] of latency and
   the same of module service, so back-to-back local words are contiguous
   on their module.  A slot whose page is a local hit therefore also
   caches the ATC's entry cell; a word through it reads or writes the
   frame directly, adds [t_local_word] to [acc], and joins the open
   *segment* on that module.  The first word of a segment adds the
   module's queueing delay.  The segment is booked as one
   [Memmodule.acquire_run] when it is flushed: at [close], before any
   non-lane word (remote, rmw or declined), and on a module change.
   Start, latency, busy, wait, request count and horizon all come out
   identical to per-word acquisition.  Remote words leave gaps between
   services and an rmw's latency is twice its service, so they keep the
   per-word cores. *)

module Cmap = Platinum_core.Cmap
module Pmap = Platinum_core.Pmap
module Frame = Platinum_phys.Frame

(* The operations the memory backend exposes to the coalescer.  All
   closures are built once at backend construction; calling them
   allocates nothing.  [fp_read]/[fp_write]/[fp_rmw] re-verify the hit
   (active aspace, ATC entry, rights) and return its latency, or [-1] —
   never fault — on anything but a clean hit; the value of a successful
   read/rmw sits in the shared [fp_value] cell. *)
type ops = {
  fp_epoch : unit -> int;
      (* the coherent layer's invalidation epoch; any change kills every
         cached slot.  Sampled once per arm: nothing can bump it inside an
         armed window (no engine event fires mid-run, and inline hits
         never change mappings). *)
  fp_page_words : int;
  fp_page_shift : int;
      (* log2 of fp_page_words when it is a power of two (the per-word
         page split becomes a shift), [-1] otherwise (divide) *)
  fp_probe : proc:int -> aspace:int -> vpage:int -> write:bool -> Cmap.t option;
      (* page-level eligibility: monitor disarmed, aspace active on the
         processor, translation present with sufficient rights, page not
         frozen.  [Some cmap] = eligible. *)
  fp_inject_live : unit -> bool;
      (* whether a fault plane with a non-zero rate is attached; sampled
         once per arm to decide if [fp_ok_now] must run per word *)
  fp_ok_now : unit -> bool;
      (* injection gate: [false] when the fault plane's next module draw
         would inject — the word must take the full-suspend path so the
         fault is handled (and recovered) there.  Per-word because inline
         hits consume draws at the interconnect, advancing the stream. *)
  fp_read : now:int -> proc:int -> cmap:Cmap.t -> vpage:int -> vaddr:int -> int;
      (* the word's latency on a clean hit, [-1] on anything else *)
  fp_write : now:int -> proc:int -> cmap:Cmap.t -> vpage:int -> vaddr:int -> value:int -> int;
  fp_rmw : now:int -> proc:int -> cmap:Cmap.t -> vpage:int -> vaddr:int -> f:(int -> int) -> int;
  fp_value : int ref;  (* cell holding the last successful fp_read/fp_rmw result *)
  fp_lane_probe : proc:int -> cmap:Cmap.t -> vpage:int -> Pmap.entry option;
      (* local-lane admission for a page [fp_probe] accepted: the ATC's
         stored entry cell when the frame is on [proc]'s own module and
         the caches are off, [None] otherwise; valid under the epoch *)
  fp_lane_word_ns : int;  (* latency and module service of one lane word *)
  fp_lane_wait : mem_module:int -> now:int -> int;
      (* queueing delay a segment opening at [now] sees *)
  fp_lane_charge : mem_module:int -> arrival:int -> words:int -> unit;
      (* book a closed segment as one module acquisition of [words] requests *)
}

(* One cached page-eligibility probe: valid while the epoch, page and
   processor match (a migrated thread must not reuse another processor's
   ATC entry).  [sl_cm] is refreshed only when the underlying Cmap
   changes, and [sl_entry] holds a cell the ATC already stores, so a
   steady-state slot hit allocates nothing. *)
type slot = {
  mutable sl_epoch : int;
  mutable sl_vpage : int;
  mutable sl_proc : int;
  mutable sl_ok : bool;
  mutable sl_cm : Cmap.t option;
  mutable sl_entry : Pmap.entry option;  (* [Some] = the page takes the local lane *)
}

let make_slot () =
  { sl_epoch = -1; sl_vpage = -1; sl_proc = -1; sl_ok = false; sl_cm = None; sl_entry = None }

(* The per-thread run buffer: two read slots (direct-mapped by vpage
   parity — a stencil alternating between two pages keeps both warm) and
   one write slot shared by writes and rmws. *)
type buf = {
  rd0 : slot;
  rd1 : slot;
  wr : slot;
}

let make_buf () = { rd0 = make_slot (); rd1 = make_slot (); wr = make_slot () }

type stats = {
  mutable runs : int;  (* settles that closed a non-empty run *)
  mutable coalesced : int;  (* words drained inline *)
  mutable fallbacks : int;  (* eligible-armed accesses that declined *)
  mutable lane : int;  (* coalesced words that took the local lane *)
}

(* Bound on words drained within one engine event: a [while true do
   Api.read done] loop must not starve the engine forever. *)
let run_cap = 4096

type ctx = {
  mutable armed : bool;
  mutable ops : ops option;
  mutable buf : buf;
  mutable base : int;  (* engine time of the arming event *)
  mutable acc : int;  (* latency accumulated by the in-flight run *)
  mutable run_words : int;
  mutable proc : int;
  mutable aspace : int;
  mutable quantum_left : int;  (* ns of quantum the run may consume *)
  mutable epoch : int;  (* the invalidation epoch, sampled at arm *)
  mutable check_inject : bool;  (* a live fault plane requires fp_ok_now per word *)
  mutable out_value : int;  (* result slot for try_read/try_rmw *)
  mutable seg_module : int;  (* the open lane segment's module *)
  mutable seg_arrival : int;  (* engine time its first word arrived *)
  mutable seg_words : int;  (* its length; 0 = no segment open *)
  st : stats;
}

let make_ctx () =
  {
    armed = false;
    ops = None;
    buf = make_buf ();
    base = 0;
    acc = 0;
    run_words = 0;
    proc = 0;
    aspace = 0;
    quantum_left = 0;
    epoch = -1;
    check_inject = false;
    out_value = 0;
    seg_module = -1;
    seg_arrival = 0;
    seg_words = 0;
    st = { runs = 0; coalesced = 0; fallbacks = 0; lane = 0 };
  }

(* One context per domain: fibers run on the domain that resumed them and
   each domain drives at most one simulation event at a time, so the
   context is never shared.  The run-buffer slots it points at are
   per-thread state handed over at each arm.
   lint: allow toplevel-state — Domain.DLS is the sanctioned per-domain
   container; the key itself is immutable and the init closure builds a
   fresh context (and placeholder buffer) per domain. *)
let key = Domain.DLS.new_key (fun () -> make_ctx ())

let ctx () = Domain.DLS.get key

(* --- kernel side --- *)

(* lint: allow zero-alloc — the [Some ops] refresh fires once per backend
   handoff (a different simulation reusing the domain); in steady state
   the [==] guard keeps the cell physically unchanged and the arm is
   allocation-free. *)
let arm c ops ~buf ~base ~proc ~aspace ~quantum_left =
  c.armed <- true;
  (match c.ops with Some o when o == ops -> () | _ -> c.ops <- Some ops);
  c.buf <- buf;
  c.base <- base;
  c.acc <- 0;
  c.run_words <- 0;
  c.proc <- proc;
  c.aspace <- aspace;
  c.quantum_left <- quantum_left;
  c.seg_words <- 0;
  c.epoch <- ops.fp_epoch ();
  c.check_inject <- ops.fp_inject_live ()

(* Book the open lane segment, if any, as one module acquisition. *)
let flush c ops =
  if c.seg_words > 0 then begin
    ops.fp_lane_charge ~mem_module:c.seg_module ~arrival:c.seg_arrival ~words:c.seg_words;
    c.seg_words <- 0
  end

(* Close the in-flight run: book the open segment, disarm and return the
   accumulated latency the kernel must charge (0 = nothing coalesced, the
   settle is free). *)
let close c =
  if not c.armed then 0
  else begin
    c.armed <- false;
    (match c.ops with Some ops -> flush c ops | None -> ());
    let acc = c.acc in
    if c.run_words > 0 then c.st.runs <- c.st.runs + 1;
    acc
  end

let armed c = c.armed

(* --- user side (called from Api) --- *)

let value c = c.out_value

(* Validate (or refresh) a slot's page-eligibility probe against the
   arm-time epoch and the running processor.  The [==] guard keeps
   [sl_cm] physically stable so a steady-state refresh of the same page
   allocates nothing beyond the probe itself; the lane probe returns a
   cell the ATC already holds.
   lint: allow zero-alloc — the [Some cm] store runs only when the slot's
   Cmap actually changed (first touch of a page, or a remap), never on
   the steady-state revalidation path the [==] guard serves. *)
let slot_ok c ops (sl : slot) ~vpage ~write =
  if sl.sl_epoch = c.epoch && sl.sl_vpage = vpage && sl.sl_proc = c.proc then sl.sl_ok
  else begin
    let r = ops.fp_probe ~proc:c.proc ~aspace:c.aspace ~vpage ~write in
    sl.sl_epoch <- c.epoch;
    sl.sl_vpage <- vpage;
    sl.sl_proc <- c.proc;
    (match r with
    | Some cm ->
      sl.sl_ok <- true;
      (match sl.sl_cm with
      | Some old when old == cm -> ()
      | _ -> sl.sl_cm <- Some cm);
      sl.sl_entry <- ops.fp_lane_probe ~proc:c.proc ~cmap:cm ~vpage
    | None ->
      sl.sl_ok <- false;
      sl.sl_entry <- None);
    sl.sl_ok
  end

(* A declined word takes the full-suspend path, whose settle [close]s the
   run — booking the open segment — before the word reaches memory. *)
let decline c =
  c.st.fallbacks <- c.st.fallbacks + 1;
  false

let[@inline] vpage_of ops vaddr =
  if ops.fp_page_shift >= 0 then vaddr lsr ops.fp_page_shift else vaddr / ops.fp_page_words

let[@inline] offset_of ops vaddr =
  if ops.fp_page_shift >= 0 then vaddr land (ops.fp_page_words - 1)
  else vaddr mod ops.fp_page_words

(* Charge one lane word to the segment on its frame's module, opening a
   new segment (and paying the module's queueing delay) when none is open
   or the module changed. *)
let lane_step c ops (e : Pmap.entry) =
  let m = Frame.mem_module e.Pmap.frame in
  if c.seg_words = 0 || m <> c.seg_module then begin
    flush c ops;
    let now = c.base + c.acc in
    c.seg_module <- m;
    c.seg_arrival <- now;
    c.acc <- c.acc + ops.fp_lane_wait ~mem_module:m ~now
  end;
  c.seg_words <- c.seg_words + 1;
  c.acc <- c.acc + ops.fp_lane_word_ns;
  c.run_words <- c.run_words + 1;
  c.st.coalesced <- c.st.coalesced + 1;
  c.st.lane <- c.st.lane + 1

let try_read c vaddr =
  if not c.armed then false
  else
    match c.ops with
    | None -> false
    | Some ops ->
      if vaddr < 0 || c.acc >= c.quantum_left || c.run_words >= run_cap then decline c
      else begin
        let vpage = vpage_of ops vaddr in
        let sl = if vpage land 1 = 0 then c.buf.rd0 else c.buf.rd1 in
        if not (slot_ok c ops sl ~vpage ~write:false) then decline c
        else
          match sl.sl_entry with
          | Some e when not c.check_inject ->
            lane_step c ops e;
            c.out_value <- Frame.get e.Pmap.frame (offset_of ops vaddr);
            true
          | _ -> (
            flush c ops;
            if c.check_inject && not (ops.fp_ok_now ()) then decline c
            else
              match sl.sl_cm with
              | Some cm ->
                let lat =
                  ops.fp_read ~now:(c.base + c.acc) ~proc:c.proc ~cmap:cm ~vpage ~vaddr
                in
                if lat < 0 then decline c
                else begin
                  c.out_value <- !(ops.fp_value);
                  c.acc <- c.acc + lat;
                  c.run_words <- c.run_words + 1;
                  c.st.coalesced <- c.st.coalesced + 1;
                  true
                end
              | None -> decline c)
      end

let try_write c vaddr value =
  if not c.armed then false
  else
    match c.ops with
    | None -> false
    | Some ops ->
      if vaddr < 0 || c.acc >= c.quantum_left || c.run_words >= run_cap then decline c
      else begin
        let vpage = vpage_of ops vaddr in
        let sl = c.buf.wr in
        if not (slot_ok c ops sl ~vpage ~write:true) then decline c
        else
          match sl.sl_entry with
          | Some e when e.Pmap.write_ok && not c.check_inject ->
            lane_step c ops e;
            Frame.set e.Pmap.frame (offset_of ops vaddr) value;
            true
          | _ -> (
            flush c ops;
            if c.check_inject && not (ops.fp_ok_now ()) then decline c
            else
              match sl.sl_cm with
              | Some cm ->
                let lat =
                  ops.fp_write ~now:(c.base + c.acc) ~proc:c.proc ~cmap:cm ~vpage ~vaddr ~value
                in
                if lat < 0 then decline c
                else begin
                  c.acc <- c.acc + lat;
                  c.run_words <- c.run_words + 1;
                  c.st.coalesced <- c.st.coalesced + 1;
                  true
                end
              | None -> decline c)
      end

let try_rmw c vaddr f =
  if not c.armed then false
  else
    match c.ops with
    | None -> false
    | Some ops ->
      if vaddr < 0 || c.acc >= c.quantum_left || c.run_words >= run_cap then decline c
      else begin
        let vpage = vpage_of ops vaddr in
        let sl = c.buf.wr in
        (* An rmw's latency is twice its module service: never a lane word. *)
        flush c ops;
        if not (slot_ok c ops sl ~vpage ~write:true) then decline c
        else if c.check_inject && not (ops.fp_ok_now ()) then decline c
        else
          match sl.sl_cm with
          | Some cm ->
            let lat = ops.fp_rmw ~now:(c.base + c.acc) ~proc:c.proc ~cmap:cm ~vpage ~vaddr ~f in
            if lat < 0 then decline c
            else begin
              c.out_value <- !(ops.fp_value);
              c.acc <- c.acc + lat;
              c.run_words <- c.run_words + 1;
              c.st.coalesced <- c.st.coalesced + 1;
              true
            end
          | None -> decline c
      end

(* --- introspection (tests, the bench gates) --- *)

let stats c = c.st

let reset_stats c =
  c.st.runs <- 0;
  c.st.coalesced <- 0;
  c.st.fallbacks <- 0;
  c.st.lane <- 0
