(** A memory module with FIFO contention.

    Each processor node of the Butterfly contributes one memory module.  A
    module serves one request at a time; concurrent requests queue.  The
    model tracks a [busy_until] horizon: a request arriving at time [t]
    starts at [max t busy_until] and occupies the module for its service
    time.  Queueing delay is the dominant contention effect the paper
    discusses (§1, §7). *)

type t

val create : int -> t
(** [create id] is an idle module. *)

val id : t -> int

val acquire : t -> arrival:Platinum_sim.Time_ns.t -> service:int -> Platinum_sim.Time_ns.t
(** [acquire m ~arrival ~service] reserves the module for [service] ns
    starting at [max arrival busy_until]; returns the start time.  The
    caller's latency contribution is [(start - arrival) + service]. *)

val acquire_run :
  t -> arrival:Platinum_sim.Time_ns.t -> service:int -> requests:int -> Platinum_sim.Time_ns.t
(** [acquire_run m ~arrival ~service ~requests] books [requests]
    back-to-back requests whose services sum to [service] as one
    reservation.  It is state- and statistics-identical to [requests]
    successive {!acquire}s when each later request arrives exactly when
    its predecessor's service ends (a contiguous run: per-request latency
    equals per-request service).  [requests] must be positive. *)

val busy_until : t -> Platinum_sim.Time_ns.t

val reserve_until : t -> Platinum_sim.Time_ns.t -> unit
(** Extend the busy horizon to at least the given time (used by block
    transfers, which occupy both modules involved). *)

(* --- statistics --- *)

val total_busy_ns : t -> int
(** Cumulative occupancy. *)

val total_wait_ns : t -> int
(** Cumulative queueing delay experienced by requests at this module. *)

val requests : t -> int

val reset_stats : t -> unit

val utilization : t -> horizon:Platinum_sim.Time_ns.t -> float
(** Occupancy as a fraction of [horizon]. *)
