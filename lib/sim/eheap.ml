(* Array-backed indexed binary min-heap on (time, seq) keys.

   Packed mode: key = (time lsl seq_bits) lor seq, one immediate int per
   entry, so sift comparisons are single unboxed compares.  Fallback mode
   (entered on the first key outside the packed ranges): parallel times[]
   and seqs[] arrays with lexicographic compares.  Both modes implement the
   identical total order, so the migration is invisible to callers.

   Payloads never move.  A payload is stored once into [data.(slot)] on
   [add] and reset to [dummy] once on [pop]; the sifts move only the keys
   and the parallel [slots] array (heap position -> payload slot), all
   immediate ints.  A store of a boxed value into a major-heap array goes
   through the write barrier ([caml_modify]), so moving payloads would pay
   it on every sift step — about 2 log2(n) times per event instead of
   twice.  Free slot ids live in [slots.(size .. cap-1)]: [slots] is always
   a permutation of [0 .. cap-1], live slots first. *)

let seq_bits = 26
let max_packed_seq = (1 lsl seq_bits) - 1
let max_packed_time = max_int lsr seq_bits

type 'a t = {
  mutable keys : int array;   (* packed mode; [||] once migrated *)
  mutable times : int array;  (* fallback mode; [||] while packed *)
  mutable seqs : int array;
  mutable slots : int array;  (* heap position -> payload slot; free ids past [size] *)
  mutable data : 'a array;    (* payload slot -> payload *)
  mutable size : int;
  mutable packed : bool;
  dummy : 'a;
}

let create ?(capacity = 1024) ~dummy () =
  let capacity = max capacity 1 in
  {
    keys = Array.make capacity 0;
    times = [||];
    seqs = [||];
    slots = Array.init capacity Fun.id;
    data = Array.make capacity dummy;
    size = 0;
    packed = true;
    dummy;
  }

let size t = t.size
let is_empty t = t.size = 0
let is_packed t = t.packed

let capacity t = Array.length t.data

(* Only called when full, so every old slot is live and the new ids
   [cap .. 2cap-1] are exactly the free ones. *)
let grow t =
  let cap = capacity t in
  let cap' = cap * 2 in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.data <- extend t.data t.dummy;
  let slots = Array.init cap' Fun.id in
  Array.blit t.slots 0 slots 0 cap;
  t.slots <- slots;
  if t.packed then t.keys <- extend t.keys 0
  else begin
    t.times <- extend t.times 0;
    t.seqs <- extend t.seqs 0
  end

(* Migrate every packed key into the two-array representation. *)
let spill t =
  let cap = capacity t in
  let times = Array.make cap 0 and seqs = Array.make cap 0 in
  for i = 0 to t.size - 1 do
    let k = t.keys.(i) in
    times.(i) <- k lsr seq_bits;
    seqs.(i) <- k land max_packed_seq
  done;
  t.times <- times;
  t.seqs <- seqs;
  t.keys <- [||];
  t.packed <- false

(* --- packed-mode sifts: one int compare per step ---

   The sifts are top-level tail recursions over the hole index, with the
   sifted key and slot threaded as arguments: a [let i = ref i] accumulator
   would box on every [add]/[pop] (no flambda), and the zero-alloc lint
   holds these to the same standard as the word paths they serve.  The
   [int array] annotations keep the compares and stores monomorphic:
   unannotated, these loops would generalise to ['a array] and pay a
   polymorphic compare and a barriered store per step. *)

let rec sift_up_packed (keys : int array) (slots : int array) i (k : int) (s : int) =
  let p = (i - 1) / 2 in
  if i > 0 && keys.(p) > k then begin
    keys.(i) <- keys.(p);
    slots.(i) <- slots.(p);
    sift_up_packed keys slots p k s
  end
  else begin
    keys.(i) <- k;
    slots.(i) <- s
  end

let rec sift_down_packed (keys : int array) (slots : int array) n i (k : int) (s : int) =
  let l = (2 * i) + 1 in
  if l >= n then begin
    keys.(i) <- k;
    slots.(i) <- s
  end
  else begin
    let c = if l + 1 < n && keys.(l + 1) < keys.(l) then l + 1 else l in
    if keys.(c) < k then begin
      keys.(i) <- keys.(c);
      slots.(i) <- slots.(c);
      sift_down_packed keys slots n c k s
    end
    else begin
      keys.(i) <- k;
      slots.(i) <- s
    end
  end

(* --- fallback-mode sifts: lexicographic (time, seq) --- *)

let rec sift_up_fb (times : int array) (seqs : int array) (slots : int array) i (tm : int)
    (sq : int) (s : int) =
  let p = (i - 1) / 2 in
  if i > 0 && (times.(p) > tm || (times.(p) = tm && seqs.(p) > sq)) then begin
    times.(i) <- times.(p);
    seqs.(i) <- seqs.(p);
    slots.(i) <- slots.(p);
    sift_up_fb times seqs slots p tm sq s
  end
  else begin
    times.(i) <- tm;
    seqs.(i) <- sq;
    slots.(i) <- s
  end

let rec sift_down_fb (times : int array) (seqs : int array) (slots : int array) n i
    (tm : int) (sq : int) (s : int) =
  let l = (2 * i) + 1 in
  if l >= n then begin
    times.(i) <- tm;
    seqs.(i) <- sq;
    slots.(i) <- s
  end
  else begin
    let c =
      if
        l + 1 < n
        && (times.(l + 1) < times.(l)
           || (times.(l + 1) = times.(l) && seqs.(l + 1) < seqs.(l)))
      then l + 1
      else l
    in
    if times.(c) < tm || (times.(c) = tm && seqs.(c) < sq) then begin
      times.(i) <- times.(c);
      seqs.(i) <- seqs.(c);
      slots.(i) <- slots.(c);
      sift_down_fb times seqs slots n c tm sq s
    end
    else begin
      times.(i) <- tm;
      seqs.(i) <- sq;
      slots.(i) <- s
    end
  end

let add t ~time ~seq v =
  if time < 0 || seq < 0 then invalid_arg "Eheap.add: negative key component";
  if t.size = capacity t then grow t;
  if t.packed && (time > max_packed_time || seq > max_packed_seq) then spill t;
  let i = t.size in
  let s = t.slots.(i) in
  t.data.(s) <- v;
  t.size <- i + 1;
  if t.packed then sift_up_packed t.keys t.slots i ((time lsl seq_bits) lor seq) s
  else sift_up_fb t.times t.seqs t.slots i time seq s

let check_nonempty t op = if t.size = 0 then invalid_arg ("Eheap." ^ op ^ ": empty heap")

let min_time t =
  check_nonempty t "min_time";
  if t.packed then t.keys.(0) lsr seq_bits else t.times.(0)

let min_seq t =
  check_nonempty t "min_seq";
  if t.packed then t.keys.(0) land max_packed_seq else t.seqs.(0)

(* The root's slot is freed into position [last], which the shrink hands
   to the free region; the last entry's key and slot sift down from the
   root over the remaining [last] positions. *)
let pop t =
  check_nonempty t "pop";
  let slots = t.slots in
  let top = slots.(0) in
  let v = t.data.(top) in
  t.data.(top) <- t.dummy;
  let last = t.size - 1 in
  let s = slots.(last) in
  slots.(last) <- top;
  t.size <- last;
  if t.packed then sift_down_packed t.keys slots last 0 t.keys.(last) s
  else sift_down_fb t.times t.seqs slots last 0 t.times.(last) t.seqs.(last) s;
  v
