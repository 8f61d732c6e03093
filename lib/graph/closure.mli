(** Transitive closure of directed graphs: one materializing closure
    ([compute]) and memoized on-demand reachability ([On_demand]).

    Closures are *reflexive*: every node reaches itself, matching the
    logical reading ([T ⊨ S ⊑ S] always holds). *)

(** A materialized closure. *)
type t

val size : t -> int

(** [compute ?pool g] materializes the reflexive transitive closure of
    [g]: Tarjan condensation, then a level-scheduled pass over the
    component DAG that fills one node-level row per component, shared
    by its members (one nc × n bit matrix).  The pass runs on [pool]
    when given and inline otherwise; the closure is identical at every
    pool width. *)
val compute : ?pool:Parallel.Pool.t -> Graph.t -> t

(** [reaches t u v] is [true] iff [v] is a (reflexive) descendant of
    [u]. *)
val reaches : t -> int -> int -> bool

(** [descendants t v] is the reflexive descendant set of [v] — shared
    with the other members of [v]'s component, do not mutate. *)
val descendants : t -> int -> Bitvec.t

(** [ancestors t v] is a freshly computed reflexive ancestor set of
    [v]. *)
val ancestors : t -> int -> Bitvec.t

(** Memoized on-demand reachability: computes and caches one DFS row per
    distinct source actually queried (the closure-free logical
    implication engine builds on this). *)
module On_demand : sig
  type t

  (** [create g] wraps [g]; [g] must not be mutated afterwards. *)
  val create : Graph.t -> t

  (** [row t v] is the (cached) reflexive descendant set of [v]. *)
  val row : t -> int -> Bitvec.t

  (** [reaches t u v] is reflexive reachability, computed lazily. *)
  val reaches : t -> int -> int -> bool
end
