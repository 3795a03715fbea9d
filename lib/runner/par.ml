let default_jobs () = Domain.recommended_domain_count ()

(* 0 = unset: resolve to the recommended count at use time. *)
let jobs_setting = Atomic.make 0

let set_jobs n =
  if n < 0 then invalid_arg "Par.set_jobs: negative job count";
  Atomic.set jobs_setting n

let get_jobs () =
  let j = Atomic.get jobs_setting in
  if j > 0 then j else default_jobs ()

(* Intra-simulation sharding (Sim.Shard) is a different parallelism axis
   from the grid pool above: jobs = independent simulations side by side,
   shards = one simulation's per-node engines split across domains.  The
   bench harness records them separately ("grid" vs "shard" in the BENCH
   JSON) so the two kinds of speedup are never conflated.  0 = unset = 1
   shard. *)
let shards_setting = Atomic.make 0

let set_shards n =
  if n < 0 then invalid_arg "Par.set_shards: negative shard count";
  Atomic.set shards_setting n

let get_shards () =
  let s = Atomic.get shards_setting in
  if s > 0 then s else 1

let map ?jobs f cells =
  let jobs = match jobs with Some j -> j | None -> get_jobs () in
  if jobs < 1 then invalid_arg "Par.map: jobs must be >= 1";
  match cells with
  | [] -> []
  | [ cell ] -> [ f cell ]
  | cells when jobs = 1 -> List.map f cells
  | cells ->
    let items = Array.of_list cells in
    let n = Array.length items in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Work-queue: each domain repeatedly claims the next unclaimed index.
       Results land at their input index, so order is deterministic however
       the cells are scheduled. *)
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (try Ok (f items.(i)) with e -> Error e);
        worker ()
      end
    in
    let helpers = Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false)
         results)
