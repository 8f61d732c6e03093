(** Fixed-length mutable bit vectors backed by [int] words.

    Used as adjacency/reachability rows by the transitive-closure
    algorithms, where the word-parallel {!union_into} is the inner
    loop. *)

type t

(** [create n] is an all-zero bit vector of length [n].
    @raise Invalid_argument on negative [n]. *)
val create : int -> t

(** [length t] is the number of addressable bits. *)
val length : t -> int

(** [set t i] sets bit [i].
    @raise Invalid_argument when [i] is out of bounds. *)
val set : t -> int -> unit

(** [clear t i] clears bit [i]. *)
val clear : t -> int -> unit

(** [get t i] is the value of bit [i]. *)
val get : t -> int -> bool

(** [union_into ~src ~dst] sets [dst := dst ∪ src]; returns [true] iff
    [dst] changed.  Both vectors must have the same length. *)
val union_into : src:t -> dst:t -> bool

(** [inter ~a ~b] is a fresh vector holding [a ∩ b]. *)
val inter : a:t -> b:t -> t

(** [popcount t] is the number of set bits. *)
val popcount : t -> int

(** [iter_set t f] applies [f] to every set bit index in increasing
    order. *)
val iter_set : t -> (int -> unit) -> unit

(** [to_list t] is the increasing list of set bit indices. *)
val to_list : t -> int list

(** [equal a b] is extensional equality of contents. *)
val equal : t -> t -> bool
