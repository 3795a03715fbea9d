(** Domain-parallel fan-out for sweep grids.

    Every figure and ablation in the evaluation is a grid of fully
    independent simulations — each cell builds its own {!Runner.setup}
    (engine, machine, coherent memory, kernel), so nothing is shared
    between cells and each can run in its own OCaml domain.  [map] is the
    one primitive: run a function over every cell on a pool of domains and
    return the results in input order, so output formatting downstream is
    byte-identical whatever the parallelism.

    Contract for the cell function: it must not print (buffer and emit
    after collection — interleaved writes would otherwise scramble the
    report) and must not touch mutable state outside its own cell.  The
    simulator itself satisfies the second half: all simulation state hangs
    off the per-cell instances, and the only cross-instance global (the
    memory-object id counter) is atomic. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val set_jobs : int -> unit
(** Set the pool width used when [map] is called without [~jobs].
    [set_jobs 0] restores the default ([default_jobs ()]); negative values
    raise [Invalid_argument].  Set once at startup (the bench harness's
    [-j]); [1] reproduces strictly sequential behavior. *)

val get_jobs : unit -> int
(** The effective pool width: the last [set_jobs] value, or
    [default_jobs ()] when unset/reset. *)

(** {2 Intra-simulation sharding}

    A second, independent parallelism axis: [jobs] fans {e independent}
    simulations over a grid, while [shards] splits {e one} simulation's
    per-node engines across domains ({!Platinum_sim.Shard}).  Speedup
    from the two must never be conflated — the bench harness labels them ["grid"]
    (BENCH_sweep.json) and ["shard"] (BENCH_scale.json) respectively.
    The setting is plumbing for the harness's [--shards] flag; simulation
    results are identical at any shard count. *)

val set_shards : int -> unit
(** Set the shard count used by shard-aware experiments.  [set_shards 0]
    restores the default (1 — the sequential engine, bit for bit);
    negative values raise [Invalid_argument]. *)

val get_shards : unit -> int
(** The effective shard count: the last [set_shards] value, or 1. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f cells] applies [f] to every cell on [min jobs (length cells)]
    domains (the calling domain included) and returns results in input
    order.  [~jobs] defaults to {!get_jobs}; [jobs = 1] (or a single cell)
    runs sequentially in the calling domain with no domain spawned —
    exactly [List.map].  If cells raise, the exception of the earliest
    failing cell (in input order) is re-raised after every running cell
    has finished. *)
