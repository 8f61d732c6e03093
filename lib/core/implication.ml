(** On-demand logical implication: decide [T ⊨ α] *without* materializing
    the transitive closure (the second research direction of Section 5).

    Positive inclusions are answered by a graph search from the
    left-hand node; negative inclusions and unsatisfiability need the
    [computeUnsat] fixpoint, which is itself cheap, but the expensive
    closure matrix is never built.  The entailment rules are
    [Deductive]'s; only the reachability test differs.  Ablation [A3]
    compares this against the closure-based [Deductive.entails]. *)

type t = Deductive.t

(** [prepare tbox] builds the digraph and the unsat fixpoint, but no
    closure: subsumption is answered by memoized reachability. *)
let prepare tbox =
  let encoding = Encoding.build tbox in
  let unsat = Unsat.compute encoding in
  let reach = Graphlib.Closure.On_demand.create (Encoding.graph encoding) in
  { Deductive.encoding; unsat; reaches = Graphlib.Closure.On_demand.reaches reach }

(** [entails t ax] decides [T ⊨ ax] lazily, through [Deductive]'s rules. *)
let entails = Deductive.entails
