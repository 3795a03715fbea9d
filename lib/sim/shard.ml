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
   publishes it. *)

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

type t = {
  engines : Engine.t array;
  nshards : int;
  lookahead : Time_ns.t;
  check : bool;
  node_shard : int array;
  node_seq : int array;  (* single-writer: the node's own events *)
  shard_nodes : int array array;  (* shard -> its nodes, ascending *)
  boxes : box array;  (* (src shard * nshards) + dst shard *)
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
    box_push
      t.boxes.((t.node_shard.(node) * t.nshards) + t.node_shard.(dst))
      ~at ~key ~dst ~flags fn
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
  let shard_nodes =
    Array.init nshards (fun sid ->
        let sel = ref [] in
        for n = nodes - 1 downto 0 do
          if node_shard.(n) = sid then sel := n :: !sel
        done;
        Array.of_list !sel)
  in
  let t =
    {
      engines = Array.copy engines;
      nshards;
      lookahead;
      check;
      node_shard;
      node_seq = Array.make nodes 0;
      shard_nodes;
      boxes = Array.init (nshards * nshards) (fun _ -> box_create ());
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

(* Deliver shard [sid]'s incoming mail.  Entries are merged across all
   source shards and sorted by (time, key) before insertion, so each
   destination engine assigns its internal sequence numbers in an order
   that is a pure function of the workload — the crux of determinism (see
   the header above). *)
let drain t sid =
  let n = t.nshards in
  let total = ref 0 in
  for src = 0 to n - 1 do
    total := !total + t.boxes.((src * n) + sid).b_len
  done;
  if !total > 0 then begin
    let batch = Array.make !total (0, 0, 0, 0, nothing) in
    let w = ref 0 in
    for src = 0 to n - 1 do
      let b = t.boxes.((src * n) + sid) in
      for i = 0 to b.b_len - 1 do
        batch.(!w) <- (b.b_at.(i), b.b_key.(i), b.b_dst.(i), b.b_flags.(i), b.b_fn.(i));
        incr w;
        b.b_fn.(i) <- nothing
      done;
      b.b_len <- 0
    done;
    Array.sort
      (fun (at1, k1, _, _, _) (at2, k2, _, _, _) ->
        if at1 <> at2 then compare at1 at2 else compare k1 k2)
      batch;
    Array.iter
      (fun (at, _, dst, flags, fn) ->
        let e = t.engines.(dst) in
        if t.check && at < Engine.now e then
          failwith
            (Printf.sprintf
               "Shard.host check: mailbox delivery at %d before node %d clock %d (window \
                violation)"
               at dst (Engine.now e));
        Engine.schedule_at e ~daemon:(flags land 1 <> 0) ~deferred:(flags land 2 <> 0)
          ~at fn)
      batch
  end

let next_min t =
  Array.fold_left (fun acc e -> min acc (Engine.next_at e)) max_int t.engines

let alive t = Array.exists (fun e -> not (Engine.is_empty e)) t.engines

(* --- the domain pool ---

   A tiny phase barrier: the leader publishes a job (an index -> unit
   closure over shards) by bumping [round] after resetting the round's
   ticket counter; every participant — leader included — claims shard
   tickets until they run out, then the leader waits for all shards to be
   marked done.  Tickets are per-round-parity, so a straggler from the
   previous round can never steal a ticket that was already reset.
   Atomic operations provide the publication fences for the mailbox and
   engine state crossing domains. *)

type pool = {
  round : int Atomic.t;
  tickets : int Atomic.t array;  (* one per round parity *)
  done_shards : int Atomic.t;
  job : (int -> unit) ref;
  stop : bool Atomic.t;
}

let pool_create () =
  {
    round = Atomic.make 0;
    tickets = [| Atomic.make 0; Atomic.make 0 |];
    done_shards = Atomic.make 0;
    job = ref (fun _ -> ());
    stop = Atomic.make false;
  }

let claim_all pool ~nshards ~parity =
  let tickets = pool.tickets.(parity) in
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add tickets 1 in
    if i >= nshards then continue := false
    else begin
      !(pool.job) i;
      Atomic.incr pool.done_shards
    end
  done

let worker pool ~nshards =
  let last = ref 0 in
  while not (Atomic.get pool.stop) do
    let r = Atomic.get pool.round in
    if r = !last then Domain.cpu_relax ()
    else begin
      last := r;
      claim_all pool ~nshards ~parity:(r land 1)
    end
  done

let leader_phase pool ~nshards f =
  let r = Atomic.get pool.round + 1 in
  pool.job := f;
  Atomic.set pool.done_shards 0;
  Atomic.set pool.tickets.(r land 1) 0;
  Atomic.set pool.round r;  (* publishes job + resets *)
  claim_all pool ~nshards ~parity:(r land 1);
  while Atomic.get pool.done_shards < nshards do Domain.cpu_relax () done

(* --- the window loop --- *)

let rounds t ~phase =
  (* Round 0 folds in anything posted during setup. *)
  phase (fun sid -> drain t sid);
  let continue = ref (alive t) in
  while !continue do
    let m = next_min t in
    if m = max_int then continue := false
    else begin
      let window_end = m + t.lookahead in
      t.windows <- t.windows + 1;
      phase (fun sid ->
          let mine = t.shard_nodes.(sid) in
          for i = 0 to Array.length mine - 1 do
            (* run_until is inclusive; windows are [m, window_end). *)
            Engine.run_until t.engines.(mine.(i)) (window_end - 1)
          done);
      phase (fun sid -> drain t sid);
      continue := alive t
    end
  done

(* One domain claims shards in order with no pool and no barriers; more
   spawn a worker pool.  The results are identical either way, by the key
   contract. *)
let run ?(domains = 1) t =
  if t.ran then invalid_arg "Shard.run: already ran";
  if domains < 1 then invalid_arg "Shard.run: domains must be >= 1";
  t.ran <- true;
  let nshards = t.nshards in
  let ndomains = min domains nshards in
  if ndomains = 1 then
    rounds t ~phase:(fun f ->
        for i = 0 to nshards - 1 do
          f i
        done)
  else begin
    let pool = pool_create () in
    let workers =
      Array.init (ndomains - 1) (fun _ -> Domain.spawn (fun () -> worker pool ~nshards))
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set pool.stop true;
        Array.iter Domain.join workers)
      (fun () -> rounds t ~phase:(leader_phase pool ~nshards))
  end
