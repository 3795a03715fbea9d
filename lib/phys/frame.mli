(** A physical page frame.

    Frames carry real data words: replication block-copies them, and the
    application reads and writes through them, so protocol bugs corrupt
    application results and are caught by the output-checking tests. *)

type t

val create : mem_module:int -> index:int -> words:int -> t

val mem_module : t -> int
(** The memory module holding this frame. *)

val index : t -> int
(** Frame number within its module. *)

val words : t -> int

val owner : t -> int option
(** Id of the coherent page backed by this frame, if allocated. *)

val set_owner : t -> int option -> unit

val get : t -> int -> int
(** [get f off] reads word [off]. *)

val set : t -> int -> int -> unit

val read_words : t -> off:int -> dst:int array -> dst_off:int -> words:int -> unit
(** Copy [words] data words starting at [off] into [dst] at [dst_off] — the
    data plane of a block-transfer chunk.  One range check, then a copy of
    immediate ints that bypasses the write barrier [Array.blit] would pay
    per word on a major-heap destination.  Raises [Invalid_argument] when
    either range is out of bounds or [words] is negative. *)

val write_words : t -> off:int -> src:int array -> src_off:int -> words:int -> unit
(** The converse of {!read_words}: copy [words] words of [src] from
    [src_off] into the frame at [off], with the same range check. *)

val blit_from : src:t -> dst:t -> unit
(** Copy all data words of [src] into [dst] (the data plane of a block
    transfer).  Both frames must have the same size. *)

val fill_zero : t -> unit

val equal_data : t -> t -> bool
(** Word-for-word data equality (used by coherence invariant checks). *)

val pp : Format.formatter -> t -> unit
