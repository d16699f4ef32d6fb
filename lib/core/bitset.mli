(** Dense bit vectors over int words — the word-parallel substrate of the
    selection kernel ({!Kernel}). Coverage-style set cardinalities become
    word-OR folds with table-free (SWAR) popcounts instead of
    per-element marking passes. *)

type t

(** Bits stored per array word (63: the full OCaml int payload). *)
val bits_per_word : int

(** [create n] is an empty set over the universe [[0, n)]. *)
val create : int -> t

(** The universe size [n] given to {!create}. *)
val length : t -> int

(** [set t i] adds [i]. Raises [Invalid_argument] out of range. *)
val set : t -> int -> unit

(** [mem t i] tests membership. Raises [Invalid_argument] out of range. *)
val mem : t -> int -> bool

(** Number of set bits. *)
val popcount : t -> int

(** Popcount of one word value: all 63 bits count, so a negative int
    (sign bit set) has its bit 62 counted too. *)
val popcount_word : int -> int

(** [union_into ~into src] ORs [src] into [into]; both must share one
    universe size. *)
val union_into : into:t -> t -> unit

(** Remove every element. *)
val clear : t -> unit

(** [popcount_union sets] is the cardinality of the union, computed as a
    word-parallel OR fold without materializing the union. Sets must share
    one universe size; the empty list has cardinality 0. *)
val popcount_union : t list -> int
