(** Graph-based classification of DL-Lite_R TBoxes — the paper's core
    contribution (Section 5).

    [Phi_T]   : all subsumptions between basic concepts / roles /
                attributes entailed by the positive inclusions alone,
                obtained as the transitive closure of the Definition-1
                digraph (Theorem 1).
    [Omega_T] : the subsumptions contributed by unsatisfiable predicates
                ([S ⊑ ⊥] entails [S ⊑ S'] for every same-sort [S']),
                obtained from [computeUnsat].

    The classification is [Phi_T ∪ Omega_T], exposed both as a
    subsumption test ([subsumes], [subsumers], [subsumees]) and as
    name-level output.  The pair readers — [name_level], the two
    hierarchies and the [CLASSIFY] reply — go through one sorted
    per-sort walk ([walk]) over the signature's names, and [line] is the
    one textual form of its pairs.  The class readers — [Taxonomy.build]
    and [equivalence_classes] — read the same closure rows once per
    equivalence class ([classes]). *)

open Dllite

let log_src = Logs.Src.create "quonto.classify" ~doc:"digraph classification"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  encoding : Encoding.t;
  closure : Graphlib.Closure.t;
  unsat : Unsat.t;
}

(** [classify ?pool tbox] builds the digraph representation,
    materializes its transitive closure (on [pool] when given, inline
    otherwise) and runs [computeUnsat]. *)
let classify ?pool tbox =
  Obs.span "classify" (fun () ->
      let encoding = Obs.span "classify.encode" (fun () -> Encoding.build tbox) in
      let closure =
        Obs.span "classify.closure" (fun () ->
            Graphlib.Closure.compute ?pool (Encoding.graph encoding))
      in
      let unsat = Obs.span "classify.unsat" (fun () -> Unsat.compute encoding) in
      Log.debug (fun m ->
          m "classified: %d nodes, %d arcs, %d unsatisfiable predicates"
            (Encoding.node_count encoding)
            (Graphlib.Graph.edge_count (Encoding.graph encoding))
            (Unsat.count unsat));
      { encoding; closure; unsat })

let encoding t = t.encoding
let closure t = t.closure
let unsat t = t.unsat
let tbox t = Encoding.tbox t.encoding

(** [is_unsat t e] — unsatisfiability of a basic expression. *)
let is_unsat t e = Unsat.is_unsat t.unsat e

(** [subsumes_by reaches encoding unsat e1 e2] decides [T ⊨ e1 ⊑ e2]
    for same-sort basic expressions, given a reflexive reachability test
    [reaches] over the Definition-1 digraph: either [e1] reaches [e2]
    ([Phi_T]) or [e1] is unsatisfiable ([Omega_T]).  Expressions outside
    the signature only subsume themselves.  The materialized closure
    ([subsumes]) and [Implication]'s on-demand search both answer
    through this one rule. *)
let subsumes_by reaches encoding unsat e1 e2 =
  Encoding.same_sort e1 e2
  &&
  match Encoding.node_opt encoding e1, Encoding.node_opt encoding e2 with
  | Some n1, Some n2 -> reaches n1 n2 || Unsat.is_unsat_node unsat n1
  | Some n1, None -> Unsat.is_unsat_node unsat n1
  | None, Some _ | None, None -> Syntax.equal_expr e1 e2

(** [subsumes t e1 e2] is [subsumes_by] over the materialized closure. *)
let subsumes t e1 e2 =
  subsumes_by (Graphlib.Closure.reaches t.closure) t.encoding t.unsat e1 e2

(** [subsumers t e] lists every basic expression [e'] with
    [T ⊨ e ⊑ e'] (restricted to the signature's node set, [e] included). *)
let subsumers t e =
  match Encoding.node_opt t.encoding e with
  | None -> [ e ]
  | Some n ->
    if Unsat.is_unsat_node t.unsat n then
      (* unsat: subsumed by every same-sort expression *)
      List.filter
        (fun e' -> Encoding.same_sort e e')
        (Array.to_list t.encoding.Encoding.expr_of_node)
    else
      Graphlib.Bitvec.to_list (Graphlib.Closure.descendants t.closure n)
      |> List.map (Encoding.expr t.encoding)

(** [subsumees t e] lists every basic expression [e'] with
    [T ⊨ e' ⊑ e]: the closure ancestors of [e] plus all unsatisfiable
    same-sort expressions. *)
let subsumees t e =
  match Encoding.node_opt t.encoding e with
  | None -> [ e ]
  | Some n ->
    let anc = Graphlib.Closure.ancestors t.closure n in
    let acc = ref [] in
    Array.iteri
      (fun v e' ->
        if
          Encoding.same_sort e' e
          && (Graphlib.Bitvec.get anc v || Unsat.is_unsat_node t.unsat v)
        then acc := e' :: !acc)
      t.encoding.Encoding.expr_of_node;
    List.rev !acc

(** Which sort of names a name-level pass walks. *)
type sort =
  | Concepts
  | Roles
  | Attributes

(** [names t sort] lists the signature's names of [sort], sorted
    ([Signature] keeps them in a [String] set). *)
let names t sort =
  let signature = Tbox.signature (tbox t) in
  match sort with
  | Concepts -> Signature.concepts signature
  | Roles -> Signature.roles signature
  | Attributes -> Signature.attributes signature

(** [expr_of_name sort name] is the basic expression naming [name]. *)
let expr_of_name sort name =
  match sort with
  | Concepts -> Syntax.E_concept (Syntax.Atomic name)
  | Roles -> Syntax.E_role (Syntax.Direct name)
  | Attributes -> Syntax.E_attr name

(** A subsumption between two named predicates, as reported by
    classification output. *)
type name_subsumption =
  | Concept_sub of string * string
  | Role_sub of string * string
  | Attr_sub of string * string

(** [walk t sort pair] is the classification between the names of
    [sort], as [pair a b] for [a ⊑ b]: every pair of distinct names where
    [a] is unsatisfiable ([Omega_T]) or [b] is in the closure row of [a]
    ([Phi_T]).  Each name's node is resolved once; the pairs come out
    sorted by [(a, b)] because the names are, so no sort is needed. *)
let walk t sort pair =
  let names = Array.of_list (names t sort) in
  let nodes = Array.map (fun a -> Encoding.node t.encoding (expr_of_name sort a)) names in
  let acc = ref [] in
  (* both indices run downwards so consing leaves the list ascending *)
  for i = Array.length names - 1 downto 0 do
    let unsat = Unsat.is_unsat_node t.unsat nodes.(i) in
    let row = Graphlib.Closure.descendants t.closure nodes.(i) in
    for j = Array.length names - 1 downto 0 do
      if i <> j && (unsat || Graphlib.Bitvec.get row nodes.(j)) then
        acc := pair names.(i) names.(j) :: !acc
    done
  done;
  !acc

(** [subsumption sort a b] is [a ⊑ b] as a [name_subsumption] of [sort]. *)
let subsumption sort a b =
  match sort with
  | Concepts -> Concept_sub (a, b)
  | Roles -> Role_sub (a, b)
  | Attributes -> Attr_sub (a, b)

(** [name_level t] materializes the classification between *names* of
    the signature (the paper's definition of ontology classification:
    "all subsumption relationships inferred ... between concept and
    property names"): concepts, then roles, then attributes, each
    sorted.  Reflexive pairs are omitted. *)
let name_level t =
  List.concat_map (fun sort -> walk t sort (subsumption sort)) [ Concepts; Roles; Attributes ]

(** [concept_hierarchy t] is the name-level concept taxonomy as
    association pairs [(sub, super)], reflexive pairs omitted. *)
let concept_hierarchy t = walk t Concepts (fun a b -> (a, b))

(** [role_hierarchy t] is the name-level role taxonomy. *)
let role_hierarchy t = walk t Roles (fun a b -> (a, b))

(** [line s] is the one textual form of a name-level subsumption, used
    by the [CLASSIFY] reply and the CLI alike. *)
let line = function
  | Concept_sub (a, b) -> a ^ " [= " ^ b
  | Role_sub (p, q) -> "role " ^ p ^ " [= " ^ q
  | Attr_sub (u, v) -> "attr " ^ u ^ " [= " ^ v

(** The names of one sort grouped as the classification orders them. *)
type classes = {
  unsatisfiable : string list;  (** the unsatisfiable names ([Omega_T]), sorted *)
  live : string array;  (** the satisfiable names, sorted *)
  members : int list array;
      (** [members.(k)]: class [k]'s names, as ascending indices into
          [live]; classes are numbered by their first member *)
  supers : int list array;  (** [supers.(k)]: class [k]'s strict superclasses *)
}

(** [classes t sort] reads the equivalence classes of [sort]'s
    satisfiable names, and each class's strict superclasses, off the
    closure rows: two names are equivalent when each one's row holds the
    other, and a class is above another when the latter's row holds its
    names.  [computeUnsat] is closed under digraph predecessors, so no
    satisfiable name reaches an unsatisfiable one.  Cost: two passes over
    one name's row per class. *)
let classes t sort =
  let node a = Encoding.node t.encoding (expr_of_name sort a) in
  let unsatisfiable, live =
    List.partition (fun a -> Unsat.is_unsat_node t.unsat (node a)) (names t sort)
  in
  let live = Array.of_list live in
  let nodes = Array.map node live in
  (* digraph node -> index into [live], or -1 *)
  let index = Array.make (Encoding.node_count t.encoding) (-1) in
  Array.iteri (fun i v -> index.(v) <- i) nodes;
  let class_of = Array.make (Array.length live) (-1) in
  let count = ref 0 and reps = ref [] in
  Array.iteri
    (fun i v ->
      if class_of.(i) < 0 then begin
        let k = !count in
        incr count;
        reps := i :: !reps;
        Graphlib.Bitvec.iter_set (Graphlib.Closure.descendants t.closure v) (fun w ->
            if index.(w) >= 0 && Graphlib.Closure.reaches t.closure w v then
              class_of.(index.(w)) <- k)
      end)
    nodes;
  let count = !count and reps = Array.of_list (List.rev !reps) in
  let members = Array.make count [] in
  for i = Array.length live - 1 downto 0 do
    members.(class_of.(i)) <- i :: members.(class_of.(i))
  done;
  let supers = Array.make count [] in
  let seen = Array.make count (-1) in
  Array.iteri
    (fun k i ->
      Graphlib.Bitvec.iter_set (Graphlib.Closure.descendants t.closure nodes.(i)) (fun w ->
          if index.(w) >= 0 then begin
            let d = class_of.(index.(w)) in
            if d <> k && seen.(d) <> k then begin
              seen.(d) <- k;
              supers.(k) <- d :: supers.(k)
            end
          end))
    reps;
  { unsatisfiable; live; members; supers }

(** [equivalence_classes t] groups concept names mutually subsuming each
    other (cycles in the digraph), a common design-quality signal: the
    classes of [classes], plus the unsatisfiable names as one class of
    their own ([a ⊑ ⊥] makes [a] subsumed by — and, via [Omega_T], a
    subsumer of — every other unsatisfiable name).  Sorted. *)
let equivalence_classes t =
  let c = classes t Concepts in
  let classes = Array.to_list (Array.map (List.map (fun i -> c.live.(i))) c.members) in
  (if c.unsatisfiable = [] then classes else c.unsatisfiable :: classes)
  |> List.sort Stdlib.compare
