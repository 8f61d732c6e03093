(** Transitive closure of directed graphs.

    Closures are *reflexive*: every node reaches itself — matching the
    logical reading ([T ⊨ S ⊑ S] always holds) and making predecessor
    sets directly usable by [computeUnsat]. *)

(** Interchangeable *materializing* algorithms (ablations A1 and A8):
    per-node DFS (O(V·E)), bit-parallel Warshall (O(V³/word)), the
    default SCC-condensation pass (fastest on the near-DAG shape of
    ontology hierarchies), and a domain-pool-parallel variant of the SCC
    algorithm.  The parallel variant is bit-for-bit equal to
    [Scc_condense] at every job count, and degrades to it at
    [jobs <= 1].  On-demand (non-materializing) reachability is
    *not* an [algorithm] case: it has a different type and lives in the
    [On_demand] submodule below. *)
type algorithm =
  | Dfs
  | Warshall
  | Scc_condense
  | Par_scc

(** [string_of_algorithm a] is the CLI spelling: "dfs", "warshall",
    "scc" or "par-scc". *)
val string_of_algorithm : algorithm -> string

(** [algorithm_of_string s] parses the CLI spelling. *)
val algorithm_of_string : string -> algorithm option

(** A materialized closure. *)
type t

val size : t -> int

(** [compute ?algorithm ?pool ?jobs g] materializes the reflexive
    transitive closure of [g] (default: [Scc_condense]).  [Par_scc]
    runs on [pool] when given, else on the shared
    [Parallel.Pool.global ?jobs ()]; both options are ignored by the
    sequential algorithms. *)
val compute :
  ?algorithm:algorithm -> ?pool:Parallel.Pool.t -> ?jobs:int -> Graph.t -> t

(** [reaches t u v] is [true] iff [v] is a (reflexive) descendant of
    [u]. *)
val reaches : t -> int -> int -> bool

(** [descendants t v] is the reflexive descendant set of [v] — shared,
    do not mutate. *)
val descendants : t -> int -> Bitvec.t

(** [ancestors t v] is a freshly computed reflexive ancestor set of
    [v]. *)
val ancestors : t -> int -> Bitvec.t

(** [equal a b] is extensional equality of the two closures,
    short-circuiting on the first differing row. *)
val equal : t -> t -> bool

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
