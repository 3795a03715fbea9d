type t =
  | Read of { vaddr : int }
  | Write of { vaddr : int; value : int }
  | Rmw of { vaddr : int; f : int -> int }
  | Block_read of { vaddr : int; len : int; dst : int array; dst_off : int }
  | Block_write of { vaddr : int; data : int array; src_off : int; len : int }
  | Stride_read of {
      vaddr : int;
      count : int;
      elem_words : int;
      stride : int;
      dst : int array;
      dst_off : int;
    }
  | Stride_write of {
      vaddr : int;
      data : int array;
      src_off : int;
      count : int;
      elem_words : int;
      stride : int;
    }

type result =
  | Unit
  | Word of int

type kind =
  | Load
  | Store
  | Update

let kind = function
  | Read _ | Block_read _ | Stride_read _ -> Load
  | Write _ | Block_write _ | Stride_write _ -> Store
  | Rmw _ -> Update

let is_write txn = kind txn <> Load

let data_words = function
  | Read _ | Write _ | Rmw _ -> 1
  | Block_read { len; _ } | Block_write { len; _ } -> max len 0
  | Stride_read { count; elem_words; _ } | Stride_write { count; elem_words; _ } ->
    max (count * elem_words) 0

let validate_stride ~what ~count ~elem_words ~stride =
  if count < 0 then invalid_arg (what ^ ": negative element count");
  if elem_words < 1 then invalid_arg (what ^ ": elements must be at least one word");
  if stride < elem_words then invalid_arg (what ^ ": stride overlaps elements")

(* The caller's buffer must hold [words] words from [off]. *)
let validate_buffer ~what buf ~off ~words =
  if off < 0 || off > Array.length buf - words then
    invalid_arg
      (Printf.sprintf "%s: %d words at offset %d overrun a buffer of %d" what words off
         (Array.length buf))

let validate = function
  | Read _ | Write _ | Rmw _ -> ()
  | Block_read { len; dst; dst_off; _ } ->
    if len < 0 then invalid_arg "Memtxn: negative length";
    validate_buffer ~what:"Memtxn.Block_read" dst ~off:dst_off ~words:len
  | Block_write { data; src_off; len; _ } ->
    if len < 0 then invalid_arg "Memtxn: negative length";
    validate_buffer ~what:"Memtxn.Block_write" data ~off:src_off ~words:len
  | Stride_read { count; elem_words; stride; dst; dst_off; _ } ->
    validate_stride ~what:"Memtxn.Stride_read" ~count ~elem_words ~stride;
    validate_buffer ~what:"Memtxn.Stride_read" dst ~off:dst_off ~words:(count * elem_words)
  | Stride_write { data; src_off; count; elem_words; stride; _ } ->
    validate_stride ~what:"Memtxn.Stride_write" ~count ~elem_words ~stride;
    validate_buffer ~what:"Memtxn.Stride_write" data ~off:src_off ~words:(count * elem_words)

type chunk = {
  mutable c_vaddr : int;
  mutable c_index : int;
  mutable c_words : int;
}

type scratch = {
  s_chunk : chunk;  (* the one chunk record iter_chunks refills *)
  s_word : int array;  (* one-word data buffer for word transactions *)
}

let make_scratch () = { s_chunk = { c_vaddr = 0; c_index = 0; c_words = 0 }; s_word = [| 0 |] }

(* Split the contiguous run [vaddr, vaddr + words) at page boundaries,
   refilling the caller's one chunk record per run. *)
let iter_run ~page_words ~vaddr ~index ~words ch f =
  let pos = ref 0 in
  while !pos < words do
    let va = vaddr + !pos in
    let off = va mod page_words in
    let len = min (page_words - off) (words - !pos) in
    ch.c_vaddr <- va;
    ch.c_index <- index + !pos;
    ch.c_words <- len;
    f ch;
    pos := !pos + len
  done

let iter_chunks ?scratch ~page_words txn f =
  let ch =
    match scratch with
    | Some s -> s.s_chunk
    | None -> { c_vaddr = 0; c_index = 0; c_words = 0 }
  in
  match txn with
  | Read { vaddr } | Write { vaddr; _ } | Rmw { vaddr; _ } ->
    ch.c_vaddr <- vaddr;
    ch.c_index <- 0;
    ch.c_words <- 1;
    f ch
  | Block_read { vaddr; len; dst_off = off; _ } | Block_write { vaddr; len; src_off = off; _ } ->
    iter_run ~page_words ~vaddr ~index:off ~words:(max len 0) ch f
  | Stride_read { vaddr; count; elem_words; stride; dst_off = off; _ }
  | Stride_write { vaddr; count; elem_words; stride; src_off = off; _ } ->
    for k = 0 to count - 1 do
      iter_run ~page_words ~vaddr:(vaddr + (k * stride)) ~index:(off + (k * elem_words))
        ~words:elem_words ch f
    done

let iter_pages ~page_words txn f =
  let last = ref min_int in
  iter_chunks ~page_words txn (fun c ->
      let vpage = c.c_vaddr / page_words in
      if vpage <> !last then begin
        last := vpage;
        f vpage
      end)

let run ~page_words ~now ?scratch txn ~chunk_cost =
  validate txn;
  let data =
    match txn with
    | Read _ | Rmw _ -> (
      match scratch with
      | Some s ->
        s.s_word.(0) <- 0;
        s.s_word
      | None -> [| 0 |])
    | Write { value; _ } -> (
      match scratch with
      | Some s ->
        s.s_word.(0) <- value;
        s.s_word
      | None -> [| value |])
    | Block_read { dst; _ } | Stride_read { dst; _ } -> dst
    | Block_write { data; _ } | Stride_write { data; _ } -> data
  in
  let lat = ref 0 in
  iter_chunks ?scratch ~page_words txn (fun chunk ->
      lat := !lat + chunk_cost ~now:(now + !lat) ~data chunk);
  let result =
    match txn with
    | Read _ | Rmw _ -> Word data.(0)
    | Write _ | Block_read _ | Block_write _ | Stride_read _ | Stride_write _ -> Unit
  in
  (result, !lat)

let pp fmt = function
  | Read { vaddr } -> Format.fprintf fmt "read @%d" vaddr
  | Write { vaddr; value } -> Format.fprintf fmt "write @%d <- %d" vaddr value
  | Rmw { vaddr; _ } -> Format.fprintf fmt "rmw @%d" vaddr
  | Block_read { vaddr; len; _ } -> Format.fprintf fmt "block-read @%d x%d" vaddr len
  | Block_write { vaddr; len; _ } -> Format.fprintf fmt "block-write @%d x%d" vaddr len
  | Stride_read { vaddr; count; elem_words; stride; _ } ->
    Format.fprintf fmt "stride-read @%d %dx%d step %d" vaddr count elem_words stride
  | Stride_write { vaddr; count; elem_words; stride; _ } ->
    Format.fprintf fmt "stride-write @%d %dx%d step %d" vaddr count elem_words stride
