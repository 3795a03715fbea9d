(** Sharded driver: a group of per-node {!Engine.t}s — node [i] is
    [engines.(i)] — split into contiguous-block shards and advanced in
    parallel by OCaml 5 domains under conservative time-window
    synchronization.

    Each engine carries one node's complete simulation: a whole kernel
    with its own run-queue slice, coherence partition and fault sub-plane
    ([Parkernel]), or one mesh node's message handlers ([Scale]).
    {!host} installs an {!Engine.router} on every engine, so every
    cross-node [Engine.post] — kernel wakeups and migrations, invalidation
    IPIs, copy-block transfers, RPC, remote reads — draws a key
    [(time, src_node, src_seq)] from the posting node's single-writer
    counter and crosses through a per-(shard, shard) mailbox.  Self-posts
    stay engine-local.

    Cross-node events take the mailbox path {e even on the same shard}
    (and even at shard count 1): destination engines assign internal
    sequence numbers on arrival, so arrival order must be a pure function
    of the workload — mailboxes drain in global (time, key) order at
    window boundaries, which no shard map can perturb.  The window width
    is the lookahead, the minimum cross-node latency (see
    {!Platinum_machine.Config.lookahead_ns}): inside one window no shard
    can affect another.  A run is therefore byte-identical at any
    (shards, domains), but follows a different (equally valid) schedule
    than the same kernels on an engine with no router; the no-router
    sequential run remains the golden oracle, and nothing here touches it.

    Window cost: a window [\[m, m + lookahead)] runs only the engines
    with an event inside it, each up to [m + lookahead - 1]
    ({!Engine.run_until} is inclusive), drains only the mailboxes that
    hold mail, and touches only the shards that own either; finding [m]
    and the engines due costs O(log) per engine run, not a scan of the
    group.

    Clock semantics: while {!run} is in progress an idle engine's clock
    lags — it stays where that engine's last event or window left it.
    Nothing observes this, because an engine's clock is read only by its
    own events, which run at their own timestamps.  When {!run} returns,
    every engine's clock is exact: one nanosecond short of the last
    window's end, as if every engine had run every window.

    Handler contract: an event may schedule further work on its own
    engine at any delay, and [Engine.post] work to other nodes at a delay
    of at least the lookahead.  Events must touch only their own node's
    state — that is what makes a node's history independent of where it
    is sharded, and what makes running shards on parallel domains safe. *)

type t

val host : ?check:bool -> shards:int -> lookahead:Time_ns.t -> Engine.t array -> t
(** Group the engines into [shards] shards (clamped to the engine count)
    and install their routers — the one place in the system that installs
    routers.  The group owns the engines until {!run} returns.  A
    cross-node post below [lookahead], or to a node outside the group,
    raises [Invalid_argument].  [check] arms the window-invariant
    self-checks (default: the [PLATINUM_CHECK=1] environment variable),
    each raising [Failure]: every mailbox delivery lands at or after the
    current window's end; each window, the indexed minimum and live-engine
    count agree with a full scan of the engines (O(nodes) per window, in
    check mode only); and no engine is left with an event before the last
    window's end.
    Because every node's state is touched only by its own engine's
    events, monitor sweeps are shard-local by construction — that is the
    pinned monitor strategy (DESIGN.md §4j).  Raises [Invalid_argument] if
    any engine already has a router. *)

val run : ?domains:int -> t -> unit
(** Advance windows until no engine has a non-daemon event pending and
    every mailbox is empty.  [domains = 1] (the default) drives every
    shard on the calling domain; larger counts spawn a worker pool, and a
    phase with a single busy shard still runs on the calling domain with
    no barrier.  The result is identical either way.  A group can run
    once. *)

val nodes : t -> int
val shards : t -> int
val shard_of_node : t -> int -> int

val windows : t -> int
(** Synchronization windows taken. *)

val events : t -> int
(** Events executed across all engines. *)

val clock : t -> Time_ns.t
(** The latest engine clock (after {!run}: the common final time, the
    last window's end minus one; mid-run, idle clocks lag). *)
