(** The coalescing effect-boundary fast path (DESIGN.md §4g).

    While a fiber is {e armed} (between the kernel event that resumed it
    and its next effect), [Api.read]/[write]/[rmw] drain word accesses
    inline through the backend's {!ops} — no effect, no suspend — as long
    as each would hit the micro-ATC under seed semantics.  The
    accumulated latency is charged as one batched operation at the next
    effect boundary (the kernel's settle); any miss, rights fault, frozen
    page, armed monitor, pending injected fault or quantum exhaustion
    declines and takes the unchanged full-suspend path.

    Eligibility and invalidation are documented on {!ops}; slots cached
    in the per-thread {!buf} die whenever the coherent layer bumps its
    epoch (remap, freeze, thaw, shootdown, retraction, monitor change).

    Local read and write hits (frame on the running processor's module,
    caches off, no live fault plane) take the {e local lane}: the word
    reads or writes the frame directly, and each run of them on one
    module is booked as a single {!Platinum_machine.Memmodule.acquire_run}
    — exactly what per-word acquisition would leave behind, because such
    words are contiguous on the module.  Every other word keeps the
    per-word [fp_read]/[fp_write]/[fp_rmw] cores. *)

(** Backend operations; see the implementation for per-field contracts.
    The word ops return the access latency on a clean hit, [-1] on
    anything else. *)
type ops = {
  fp_epoch : unit -> int;
  fp_page_words : int;
  fp_page_shift : int;
  fp_probe :
    proc:int -> aspace:int -> vpage:int -> write:bool -> Platinum_core.Cmap.t option;
  fp_inject_live : unit -> bool;
  fp_ok_now : unit -> bool;
  fp_read : now:int -> proc:int -> cmap:Platinum_core.Cmap.t -> vpage:int -> vaddr:int -> int;
  fp_write :
    now:int -> proc:int -> cmap:Platinum_core.Cmap.t -> vpage:int -> vaddr:int ->
    value:int -> int;
  fp_rmw :
    now:int -> proc:int -> cmap:Platinum_core.Cmap.t -> vpage:int -> vaddr:int ->
    f:(int -> int) -> int;
  fp_value : int ref;
  fp_lane_probe :
    proc:int -> cmap:Platinum_core.Cmap.t -> vpage:int -> Platinum_core.Pmap.entry option;
  fp_lane_word_ns : int;
  fp_lane_wait : mem_module:int -> now:int -> int;
  fp_lane_charge : mem_module:int -> arrival:int -> words:int -> unit;
}

type buf
(** Per-thread run-buffer: cached page-eligibility slots.  Lives in the
    kernel thread record and survives suspensions. *)

val make_buf : unit -> buf

type ctx
(** The per-domain coalescing context. *)

val ctx : unit -> ctx
(** This domain's context ([Domain.DLS]). *)

val run_cap : int
(** Maximum words drained within one engine event (engine-liveness bound). *)

(* --- kernel side --- *)

val arm :
  ctx -> ops -> buf:buf -> base:int -> proc:int -> aspace:int -> quantum_left:int -> unit
(** Arm the context for the fiber about to run: [base] is the engine time
    of this event, [quantum_left] the quantum budget a run may consume
    ([max_int] when the thread cannot be preempted). *)

val close : ctx -> int
(** Book any open lane segment, disarm and return the accumulated latency
    to charge (0 = nothing was coalesced; the settle must then be free of
    any engine event). *)

val armed : ctx -> bool

(* --- user side --- *)

val try_read : ctx -> int -> bool
(** [true]: the word was drained inline; read it with {!value}. *)

val try_write : ctx -> int -> int -> bool
val try_rmw : ctx -> int -> (int -> int) -> bool
val value : ctx -> int

(* --- introspection --- *)

type stats = {
  mutable runs : int;
  mutable coalesced : int;
  mutable fallbacks : int;
  mutable lane : int;  (** coalesced words that took the local lane *)
}

val stats : ctx -> stats
val reset_stats : ctx -> unit
