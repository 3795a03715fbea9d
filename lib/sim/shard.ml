(* The sharded driver: a group of per-node {!Engine.t}s — one complete
   simulation per node, typically a whole kernel — advanced in parallel by
   OCaml 5 domains under conservative time-window synchronization.

   The group installs an {!Engine.router} on every engine, so every
   [Engine.post] with [dst <> self] — kernel wakeups, protocol messages,
   block-transfer completions, mesh requests — crosses through a
   per-(shard,shard) mailbox.  Self-posts stay engine-local.

   Determinism contract — byte-identical output at ANY shard count and ANY
   domain count:

   - Every cross-node event carries the key (time, src_node, src_seq),
     where src_seq is drawn from a per-node counter at posting time.  A
     node's counter is only ever advanced while one of that node's own
     events runs (or during single-domain setup), so the keys an execution
     produces are a pure function of the workload, not of the sharding.
   - Cross-node events take the mailbox path even when src and dst share a
     shard (and even at shard count 1).  A destination engine assigns its
     internal sequence numbers as events arrive, so arrival order must be
     a pure function of the workload: mailboxes are drained in global
     (time, key) order at window boundaries, which is
     shard-count-independent, whereas a same-shard shortcut would
     interleave arrivals with the destination's own scheduling and make
     sequence assignment depend on the shard map.

   Hosted runs therefore follow a different (equally valid) schedule than
   the same kernels on one engine with no router; the no-router sequential
   world remains the golden oracle and is untouched by hosting.

   The conservative window: no event may affect another node sooner than
   [lookahead] ns (the machine's minimum cross-node latency — T_r, T_b and
   the IPI cost all bound it from above, Config.lookahead_ns).  Each round
   every engine may therefore run all events in [m, m + lookahead), where m
   is the global minimum pending timestamp: any cross-node event posted
   during the round lands at or after m + lookahead.  Rounds are separated
   by a barrier; mailboxes are written only in run phases and drained only
   in drain phases, so each buffer has one owner at a time and the barrier
   publishes it.

   Window cost is proportional to work, not to the group's size.  Each
   shard indexes its engines by next pending time in a tournament tree,
   so a window runs only the engines with an event inside it; a
   source shard records which boxes it filled, so a drain reads only boxes
   that hold mail; and a phase runs only the shards that own either.  Idle
   engines' clocks lag meanwhile — unobservable, since an engine's clock is
   read only by its own events — and one pass after the last window brings
   every clock to the last window's end minus one. *)

let node_seq_bits = 36
let max_node_seq = (1 lsl node_seq_bits) - 1

(* Mailbox for one (src shard, dst shard) pair.  Written by the source
   shard during run phases, drained and cleared by the destination shard
   during drain phases; the inter-phase barrier transfers ownership, so no
   lock is ever taken. *)
type box = {
  mutable b_at : int array;
  mutable b_key : int array;
  mutable b_dst : int array;
  mutable b_flags : int array;  (* bit 0 daemon, bit 1 deferred *)
  mutable b_fn : (unit -> unit) array;
  mutable b_len : int;
}

let nothing () = ()

let box_create () =
  {
    b_at = Array.make 8 0;
    b_key = Array.make 8 0;
    b_dst = Array.make 8 0;
    b_flags = Array.make 8 0;
    b_fn = Array.make 8 nothing;
    b_len = 0;
  }

let box_push b ~at ~key ~dst ~flags fn =
  let n = b.b_len in
  if n = Array.length b.b_at then begin
    let cap = 2 * n in
    let grow a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    b.b_at <- grow b.b_at 0;
    b.b_key <- grow b.b_key 0;
    b.b_dst <- grow b.b_dst 0;
    b.b_flags <- grow b.b_flags 0;
    b.b_fn <- grow b.b_fn nothing
  end;
  b.b_at.(n) <- at;
  b.b_key.(n) <- key;
  b.b_dst.(n) <- dst;
  b.b_flags.(n) <- flags;
  b.b_fn.(n) <- fn;
  b.b_len <- n + 1

(* A growable list of shard ids. *)
type ids = { mutable ids : int array; mutable len : int }

let ids_push l x =
  if l.len = Array.length l.ids then begin
    let a = Array.make (2 * l.len) 0 in
    Array.blit l.ids 0 a 0 l.len;
    l.ids <- a
  end;
  l.ids.(l.len) <- x;
  l.len <- l.len + 1

(* --- tournament trees ---

   A min-tree over the fixed slots [base, base + n) with one key each
   (max_int: nothing pending): leaves at [size + slot - base], each inner
   node the minimum of its two children, the root at 1.  Setting a key
   re-walks only the part of its path whose minimum changed, and
   [tree_visit] descends only into subtrees whose minimum is due, so it
   reaches the due slots in ascending order at O(log n) apiece.  The
   engine index keeps one tree per shard over its nodes; the leader keeps
   one over the shards. *)

type tree = { base : int; size : int; keys : int array }

let tree_create ~base n =
  let size = ref 1 in
  while !size < n do
    size := 2 * !size
  done;
  { base; size = !size; keys = Array.make (2 * !size) max_int }

let tree_min tr = tr.keys.(1)

let rec tree_fix keys j =
  if j >= 1 then begin
    let l = keys.(2 * j) and r = keys.((2 * j) + 1) in
    let m = if l < r then l else r in
    if keys.(j) <> m then begin
      keys.(j) <- m;
      tree_fix keys (j / 2)
    end
  end

let tree_set tr slot key =
  let j = tr.size + slot - tr.base in
  if tr.keys.(j) <> key then begin
    tr.keys.(j) <- key;
    tree_fix tr.keys (j / 2)
  end

(* Lower a slot's key to [key] if that is earlier: a delivery can make an
   engine's next event earlier, never later. *)
let tree_lower tr slot key =
  if key < tr.keys.(tr.size + slot - tr.base) then tree_set tr slot key

(* Rewrite a leaf alone, leaving the inner nodes above it to [tree_visit]. *)
let tree_leaf tr slot key = tr.keys.(tr.size + slot - tr.base) <- key

(* [f x slot] for every slot whose key is at most [bound], in ascending
   order, starting from tree node [j].  [f] may rewrite its own leaf with
   [tree_leaf]; the walk recomputes every inner node it passes on the way
   back up, so the tree is whole again when it returns. *)
let rec tree_visit tr j bound f x =
  let keys = tr.keys in
  if keys.(j) <= bound then
    if j >= tr.size then f x (j - tr.size + tr.base)
    else begin
      tree_visit tr (2 * j) bound f x;
      tree_visit tr ((2 * j) + 1) bound f x;
      let l = keys.(2 * j) and r = keys.((2 * j) + 1) in
      keys.(j) <- (if l < r then l else r)
    end

type shard = {
  tree : tree;  (* the shard's nodes keyed by their engines' next event *)
  mutable live : int;  (* nodes with non-daemon work pending *)
  mutable live_seen : int;  (* [live] as last added into the group total *)
  sent : ids;  (* dst shards whose box went non-empty this window *)
  inbox : ids;  (* src shards whose box to this shard holds mail *)
}

type t = {
  engines : Engine.t array;
  nshards : int;
  lookahead : Time_ns.t;
  check : bool;
  node_shard : int array;
  node_seq : int array;  (* single-writer: the node's own events *)
  live_node : bool array;
  shards : shard array;
  top : tree;  (* the shards keyed by their trees' minima; leader-owned *)
  mutable total_live : int;  (* sum of the shards' [live]; leader-owned *)
  boxes : box option array;
      (* (src shard * nshards) + dst shard; a box is allocated on its pair's
         first post, so mailbox memory grows with the pairs that talk *)
  run_list : int array;  (* this window's run phase: shards with a due engine *)
  mutable nrun : int;
  drain_list : int array;  (* this window's drain phase: shards with mail *)
  mutable ndrain : int;
  mutable window_end : Time_ns.t;  (* 0 before the first window *)
  mutable windows : int;
  mutable ran : bool;
}

(* The router for engine [node]: self-posts keep their engine-local
   schedule; anything else draws a key from the node's counter and rides a
   mailbox.  Only [node]'s own events (or pre-run setup, which is
   single-domain) may reach this — the counter is single-writer. *)
let route t ~node ~dst ~daemon ~deferred ~delay fn =
  let e = t.engines.(node) in
  if dst = node then Engine.schedule_after e ~daemon ~deferred ~delay fn
  else begin
    if dst < 0 || dst >= Array.length t.engines then
      invalid_arg (Printf.sprintf "Shard.host: post to unknown node %d" dst);
    if delay < t.lookahead then
      invalid_arg
        (Printf.sprintf "Shard.host: cross-node delay %d below lookahead %d" delay
           t.lookahead);
    let seq = t.node_seq.(node) in
    if seq > max_node_seq then invalid_arg "Shard.host: per-node sequence overflow";
    t.node_seq.(node) <- seq + 1;
    let key = (node lsl node_seq_bits) lor seq in
    let at = Engine.now e + delay in
    let flags = (if daemon then 1 else 0) lor if deferred then 2 else 0 in
    let src_shard = t.node_shard.(node) and dst_shard = t.node_shard.(dst) in
    let slot = (src_shard * t.nshards) + dst_shard in
    let b =
      match t.boxes.(slot) with
      | Some b -> b
      | None ->
        let b = box_create () in
        t.boxes.(slot) <- Some b;
        b
    in
    if b.b_len = 0 then ids_push t.shards.(src_shard).sent dst_shard;
    box_push b ~at ~key ~dst ~flags fn
  end

let host ?check ~shards ~lookahead engines =
  let nodes = Array.length engines in
  if nodes < 1 then invalid_arg "Shard.host: need at least one engine";
  if shards < 1 then invalid_arg "Shard.host: shards must be >= 1";
  if lookahead < 1 then invalid_arg "Shard.host: lookahead must be >= 1";
  Array.iter
    (fun e ->
      if Engine.router e <> None then
        invalid_arg "Shard.host: an engine already has a router")
    engines;
  let check =
    match check with
    | Some b -> b
    | None -> ( match Sys.getenv_opt "PLATINUM_CHECK" with Some "1" -> true | _ -> false)
  in
  let nshards = min shards nodes in
  (* Contiguous blocks: node n lives on shard n*S/N, which keeps cluster
     neighbours together for any S <= clusters. *)
  let node_shard = Array.init nodes (fun n -> n * nshards / nodes) in
  let shard sid =
    (* the first node n with n*S/N >= sid, and the first past the block *)
    let first sid = ((sid * nodes) + nshards - 1) / nshards in
    let lo = first sid in
    {
      tree = tree_create ~base:lo (first (sid + 1) - lo);
      live = 0;
      live_seen = 0;
      sent = { ids = Array.make 4 0; len = 0 };
      inbox = { ids = Array.make 4 0; len = 0 };
    }
  in
  let t =
    {
      engines = Array.copy engines;
      nshards;
      lookahead;
      check;
      node_shard;
      node_seq = Array.make nodes 0;
      live_node = Array.make nodes false;
      shards = Array.init nshards shard;
      top = tree_create ~base:0 nshards;
      total_live = 0;
      boxes = Array.make (nshards * nshards) None;
      run_list = Array.make nshards 0;
      nrun = 0;
      drain_list = Array.make nshards 0;
      ndrain = 0;
      window_end = 0;
      windows = 0;
      ran = false;
    }
  in
  Array.iteri
    (fun node e ->
      Engine.set_router e
        (Some
           {
             Engine.route =
               (fun ~src:_ ~dst ~daemon ~deferred ~delay fn ->
                 route t ~node ~dst ~daemon ~deferred ~delay fn);
           }))
    engines;
  t

let nodes t = Array.length t.engines
let shards t = t.nshards
let windows t = t.windows
let shard_of_node t node = t.node_shard.(node)
let events t = Array.fold_left (fun acc e -> acc + Engine.events_processed e) 0 t.engines
let clock t = Array.fold_left (fun acc e -> max acc (Engine.now e)) 0 t.engines

(* --- the per-shard engine index ---

   Only a node's own events and its deliveries change its queue, so a
   shard updates a node's key and liveness after running it or
   delivering to it, and nowhere else. *)

let set_live t sh node e =
  let live = not (Engine.is_empty e) in
  if live <> t.live_node.(node) then begin
    t.live_node.(node) <- live;
    sh.live <- (if live then sh.live + 1 else sh.live - 1)
  end

let index_node t node =
  let sh = t.shards.(t.node_shard.(node)) in
  let e = t.engines.(node) in
  tree_set sh.tree node (Engine.next_at e);
  set_live t sh node e

(* A delivery at [at] can only pull the node's key earlier, and a
   non-daemon one makes it live. *)
let delivered t node ~at ~daemon =
  let sh = t.shards.(t.node_shard.(node)) in
  tree_lower sh.tree node at;
  if (not daemon) && not t.live_node.(node) then begin
    t.live_node.(node) <- true;
    sh.live <- sh.live + 1
  end

(* Called from the run phase's tree walk, which fixes the inner nodes. *)
let run_node t node =
  let sh = t.shards.(t.node_shard.(node)) in
  let e = t.engines.(node) in
  (* run_until is inclusive; windows are [m, window_end). *)
  Engine.run_until e (t.window_end - 1);
  tree_leaf sh.tree node (Engine.next_at e);
  set_live t sh node e

(* Run phase for shard [sid]: every engine with an event in the window,
   in ascending node order. *)
let run_shard t sid = tree_visit t.shards.(sid).tree 1 (t.window_end - 1) run_node t

(* Drain phase for shard [sid]: deliver its incoming mail.  Entries are
   merged across the source shards that sent any and sorted by
   (time, key) before insertion, so each destination engine assigns its
   internal sequence numbers in an order that is a pure function of the
   workload — the crux of determinism (see the header above). *)
let drain t sid =
  let inbox = t.shards.(sid).inbox in
  (* an inbox names only sources that posted, so their boxes exist *)
  let box i = Option.get t.boxes.((inbox.ids.(i) * t.nshards) + sid) in
  let total = ref 0 in
  for i = 0 to inbox.len - 1 do
    total := !total + (box i).b_len
  done;
  let batch = Array.make !total (0, 0, 0, 0, nothing) in
  let w = ref 0 in
  for i = 0 to inbox.len - 1 do
    let b = box i in
    for j = 0 to b.b_len - 1 do
      batch.(!w) <- (b.b_at.(j), b.b_key.(j), b.b_dst.(j), b.b_flags.(j), b.b_fn.(j));
      incr w;
      b.b_fn.(j) <- nothing
    done;
    b.b_len <- 0
  done;
  inbox.len <- 0;
  Array.sort
    (fun (at1, k1, _, _, _) (at2, k2, _, _, _) ->
      if at1 <> at2 then compare at1 at2 else compare k1 k2)
    batch;
  Array.iter
    (fun (at, _, dst, flags, fn) ->
      (* Idle engines' clocks lag, so an engine's own clock says little;
         the window end is the bound every delivery must respect. *)
      if t.check && at < t.window_end then
        failwith
          (Printf.sprintf
             "Shard.host check: mailbox delivery at %d to node %d before window end %d \
              (window violation)"
             at dst t.window_end);
      let daemon = flags land 1 <> 0 in
      Engine.schedule_at t.engines.(dst) ~daemon ~deferred:(flags land 2 <> 0) ~at fn;
      delivered t dst ~at ~daemon)
    batch

(* Between phases, on the leader: turn the run shards' send records into
   per-destination inboxes and the drain phase's shard list. *)
let route_mail t =
  t.ndrain <- 0;
  for i = 0 to t.nrun - 1 do
    let src = t.run_list.(i) in
    let sent = t.shards.(src).sent in
    for j = 0 to sent.len - 1 do
      let dst = sent.ids.(j) in
      let inbox = t.shards.(dst).inbox in
      if inbox.len = 0 then begin
        t.drain_list.(t.ndrain) <- dst;
        t.ndrain <- t.ndrain + 1
      end;
      ids_push inbox src
    done;
    sent.len <- 0
  done

(* Check mode: the indexed window minimum and live count must agree with
   a full scan of the engines. *)
let cross_check t ~m ~live =
  let m' = Array.fold_left (fun acc e -> min acc (Engine.next_at e)) max_int t.engines in
  let live' =
    Array.fold_left (fun acc e -> if Engine.is_empty e then acc else acc + 1) 0 t.engines
  in
  if m <> m' || live <> live' then
    failwith
      (Printf.sprintf
         "Shard.host check: index says next %d with %d live engines, a scan says %d with %d"
         m live m' live')

(* --- the domain pool ---

   One phase is a list of shard ids and a job over them.  The leader
   publishes the job and list, then opens the phase by storing
   (jobs lsl 32) in [ticket]; every participant — leader included —
   claims the next unclaimed index by compare-and-set until none is left,
   and the leader waits until all jobs are marked finished.  The ticket
   word carries its own job count, so a straggler still spinning from an
   earlier phase can only ever claim a ticket the current phase issued,
   and the successful compare-and-set orders its reads of [job] and
   [items] after the leader's writes.  A phase with one shard runs on the
   leader with no round trip through the pool; a phase with none is
   skipped. *)

type pool = {
  ticket : int Atomic.t;  (* (jobs lsl 32) lor next unclaimed index *)
  finished : int Atomic.t;
  mutable job : int -> unit;
  mutable items : int array;
  stop : bool Atomic.t;
}

let ticket_mask = (1 lsl 32) - 1

(* Claim and run one job of the open phase; [false] when none is left. *)
let claim pool =
  let v = Atomic.get pool.ticket in
  let next = v land ticket_mask in
  if next >= v lsr 32 then false
  else begin
    if Atomic.compare_and_set pool.ticket v (v + 1) then begin
      pool.job pool.items.(next);
      Atomic.incr pool.finished
    end;
    true
  end

let worker pool =
  while not (Atomic.get pool.stop) do
    if not (claim pool) then Domain.cpu_relax ()
  done

let pool_phase pool items n f =
  if n = 1 then f items.(0)
  else if n > 1 then begin
    pool.job <- f;
    pool.items <- items;
    Atomic.set pool.finished 0;
    Atomic.set pool.ticket (n lsl 32);  (* publishes job + items *)
    while claim pool do () done;
    while Atomic.get pool.finished < n do Domain.cpu_relax () done
  end

(* --- the window loop ---

   Per window the leader opens [m, m + lookahead) at the shard tree's
   minimum, runs the shards with an engine due in it, then drains the
   shards their engines sent mail to, folding each phase's shards back into
   the shard tree and the live total.  Nothing here scans engines or
   mailbox pairs outside check mode. *)

let settle_shards t list n =
  for i = 0 to n - 1 do
    let sid = list.(i) in
    let sh = t.shards.(sid) in
    tree_set t.top sid (tree_min sh.tree);
    t.total_live <- t.total_live + sh.live - sh.live_seen;
    sh.live_seen <- sh.live
  done

let add_run t sid =
  t.run_list.(t.nrun) <- sid;
  t.nrun <- t.nrun + 1

let rounds t ~phase =
  let run_job = run_shard t and drain_job = drain t in
  (* Index every engine once; round 0 folds in anything posted during
     setup. *)
  for node = 0 to Array.length t.engines - 1 do
    index_node t node
  done;
  for sid = 0 to t.nshards - 1 do
    t.run_list.(sid) <- sid
  done;
  t.nrun <- t.nshards;
  settle_shards t t.run_list t.nrun;
  route_mail t;
  phase t.drain_list t.ndrain drain_job;
  settle_shards t t.drain_list t.ndrain;
  let continue = ref true in
  while !continue do
    let m = tree_min t.top in
    if t.check then cross_check t ~m ~live:t.total_live;
    if t.total_live = 0 || m = max_int then continue := false
    else begin
      let window_end = m + t.lookahead in
      t.window_end <- window_end;
      t.windows <- t.windows + 1;
      t.nrun <- 0;
      tree_visit t.top 1 (window_end - 1) add_run t;
      phase t.run_list t.nrun run_job;
      settle_shards t t.run_list t.nrun;
      route_mail t;
      phase t.drain_list t.ndrain drain_job;
      settle_shards t t.drain_list t.ndrain
    end
  done;
  (* Bring the idle engines' lagging clocks to the last window's end minus
     one, where running every engine in every window would have left them.
     No event is due before then, or the last window would have run it. *)
  if t.windows > 0 then
    Array.iteri
      (fun node e ->
        if t.check && Engine.next_at e < t.window_end then
          failwith
            (Printf.sprintf
               "Shard.host check: node %d has an event at %d before the final window end %d"
               node (Engine.next_at e) t.window_end);
        Engine.run_until e (t.window_end - 1))
      t.engines

(* One domain runs each phase's shards in order with no pool and no
   barriers; more spawn a worker pool.  The results are identical either
   way, by the key contract. *)
let run ?(domains = 1) t =
  if t.ran then invalid_arg "Shard.run: already ran";
  if domains < 1 then invalid_arg "Shard.run: domains must be >= 1";
  t.ran <- true;
  let ndomains = min domains t.nshards in
  if ndomains = 1 then
    rounds t ~phase:(fun items n f ->
        for i = 0 to n - 1 do
          f items.(i)
        done)
  else begin
    let pool =
      {
        ticket = Atomic.make 0;
        finished = Atomic.make 0;
        job = ignore;
        items = [||];
        stop = Atomic.make false;
      }
    in
    let workers = Array.init (ndomains - 1) (fun _ -> Domain.spawn (fun () -> worker pool)) in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set pool.stop true;
        Array.iter Domain.join workers)
      (fun () -> rounds t ~phase:(pool_phase pool))
  end
