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
    name-level output.  Every name-level reader — [name_level], the two
    hierarchies, [Taxonomy.build] and the [CLASSIFY] reply — goes
    through one sorted per-sort walk ([walk]) over the signature's
    names, and [line] is the one textual form of its pairs. *)

open Dllite

let log_src = Logs.Src.create "quonto.classify" ~doc:"digraph classification"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  encoding : Encoding.t;
  closure : Graphlib.Closure.t;
  unsat : Unsat.t;
}

(** [classify ?algorithm ?jobs tbox] builds the digraph representation,
    materializes its transitive closure (default algorithm:
    SCC condensation; [jobs] selects the domain-pool width for the
    parallel algorithms) and runs [computeUnsat]. *)
let classify ?algorithm ?jobs tbox =
  Obs.span "classify" (fun () ->
      let encoding = Obs.span "classify.encode" (fun () -> Encoding.build tbox) in
      let closure =
        Obs.span "classify.closure" (fun () ->
            Graphlib.Closure.compute ?algorithm ?jobs (Encoding.graph encoding))
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

(** [subsumes t e1 e2] decides [T ⊨ e1 ⊑ e2] for same-sort basic
    expressions: either [(e1, e2)] is in the closure ([Phi_T]) or [e1]
    is unsatisfiable ([Omega_T]).  Expressions outside the signature
    only subsume themselves. *)
let subsumes t e1 e2 =
  Encoding.same_sort e1 e2
  &&
  match Encoding.node_opt t.encoding e1, Encoding.node_opt t.encoding e2 with
  | Some n1, Some n2 ->
    Graphlib.Closure.reaches t.closure n1 n2 || Unsat.is_unsat_node t.unsat n1
  | Some n1, None -> Unsat.is_unsat_node t.unsat n1
  | None, Some _ | None, None -> Syntax.equal_expr e1 e2

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

(** [equivalence_classes t] groups concept names mutually subsuming each
    other (cycles in the digraph), a common design-quality signal.

    Read directly off the Tarjan components of the Definition-1 digraph
    instead of probing all O(n²) name pairs with [subsumes]: two
    satisfiable names are equivalent iff their nodes share an SCC, and
    the unsatisfiable names form one equivalence class of their own
    ([a ⊑ ⊥] makes [a] subsumed by — and, via [Omega_T], a subsumer of —
    every other unsatisfiable name; [computeUnsat] is closed under
    digraph predecessors, so a satisfiable name can never reach an
    unsatisfiable one). *)
let equivalence_classes t =
  let scc = Graphlib.Scc.tarjan (Encoding.graph t.encoding) in
  (* key: component id for satisfiable in-graph names, [-1] for the
     merged unsatisfiable class; names outside the digraph only subsume
     themselves and stay singletons. *)
  let classes = Hashtbl.create 16 in
  let singletons = ref [] in
  List.iter
    (fun a ->
      match Encoding.node_opt t.encoding (Syntax.E_concept (Syntax.Atomic a)) with
      | None -> singletons := [ a ] :: !singletons
      | Some n ->
        let key =
          if Unsat.is_unsat_node t.unsat n then -1 else scc.Graphlib.Scc.component.(n)
        in
        let prev = Option.value ~default:[] (Hashtbl.find_opt classes key) in
        Hashtbl.replace classes key (a :: prev))
    (names t Concepts);
  Hashtbl.fold (fun _ members acc -> List.rev members :: acc) classes !singletons
  |> List.sort Stdlib.compare
