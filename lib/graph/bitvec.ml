(** Fixed-length mutable bit vectors backed by [int] words.

    Used as adjacency/reachability rows in the transitive-closure
    algorithms, where the word-parallel [union_into] is the inner loop. *)

type t = {
  length : int;          (** number of addressable bits *)
  words : int array;     (** packed little-endian words of [bits_per_word] bits *)
}

let bits_per_word = Sys.int_size

let word_count length =
  if length = 0 then 0 else ((length - 1) / bits_per_word) + 1

(** [create n] is an all-zero bit vector of length [n]. *)
let create length =
  if length < 0 then invalid_arg "Bitvec.create: negative length";
  { length; words = Array.make (word_count length) 0 }

let length t = t.length

let check_index t i =
  if i < 0 || i >= t.length then invalid_arg "Bitvec: index out of bounds"

(** [set t i] sets bit [i]. *)
let set t i =
  check_index t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

(** [clear t i] clears bit [i]. *)
let clear t i =
  check_index t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

(** [get t i] is the value of bit [i]. *)
let get t i =
  check_index t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

(** [union_into ~src ~dst] sets [dst := dst ∪ src].  Returns [true] iff
    [dst] changed.  Both vectors must have the same length. *)
let union_into ~src ~dst =
  if src.length <> dst.length then invalid_arg "Bitvec.union_into: length mismatch";
  let changed = ref false in
  for w = 0 to Array.length src.words - 1 do
    let before = dst.words.(w) in
    let after = before lor src.words.(w) in
    if after <> before then begin
      dst.words.(w) <- after;
      changed := true
    end
  done;
  !changed

(** [inter ~a ~b] is a fresh vector holding [a ∩ b]. *)
let inter ~a ~b =
  if a.length <> b.length then invalid_arg "Bitvec.inter: length mismatch";
  let r = create a.length in
  for w = 0 to Array.length a.words - 1 do
    r.words.(w) <- a.words.(w) land b.words.(w)
  done;
  r

(** [popcount t] is the number of set bits. *)
let popcount t =
  let count_word w =
    let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
    go w 0
  in
  Array.fold_left (fun acc w -> acc + count_word w) 0 t.words

(** [iter_set t f] applies [f] to every set bit index in increasing order. *)
let iter_set t f =
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = 0 to bits_per_word - 1 do
        if word land (1 lsl b) <> 0 then f ((w * bits_per_word) + b)
      done
  done

(** [to_list t] is the increasing list of set bit indices. *)
let to_list t =
  let acc = ref [] in
  iter_set t (fun i -> acc := i :: !acc);
  List.rev !acc

(** [equal a b] is structural equality of contents. *)
let equal a b = a.length = b.length && a.words = b.words
