(** Tableau decision procedure for concept satisfiability w.r.t. an
    ALCHI TBox.

    This is the engine behind the simulated "expressive DL" reasoners of
    Figure 1 and the oracle used by semantic approximation and by the
    property-based tests of the graph classifier.

    Implementation notes:
    - completion structures are *trees* (ALCHI has the tree-model
      property); each node carries its concept label, each non-root node
      the role labelling the edge from its parent;
    - general axioms are *absorbed* where possible ([A ⊑ D] triggers on
      [A] in a label; [∃R.⊤ ⊑ D] triggers on an [R]-neighbour); the
      remainder is internalized as a disjunction added to every label;
    - inverse roles require *pairwise blocking* for termination and
      soundness;
    - disjunctions branch chronologically over an immutable state, so
      backtracking is snapshot-free;
    - a rule-application budget guards against pathological inputs; the
      bench harness maps budget exhaustion to the paper's "timeout"
      cells. *)

exception Budget_exhausted

module Cset = Set.Make (struct
  type t = Osyntax.concept

  let compare = Osyntax.compare_concept
end)

module Imap = Map.Make (Int)

type node = {
  label : Cset.t;
  parent : (int * Osyntax.role) option;  (* parent id, edge role *)
  children : (int * Osyntax.role) list;  (* child id, edge role *)
}

type state = {
  nodes : node Imap.t;
  next_id : int;
}

type config = {
  hierarchy : Hierarchy.t;
  unfold_name : (string, Osyntax.concept list) Hashtbl.t;
      (* A ↦ [D; ...] for absorbed axioms A ⊑ D *)
  unfold_domain : (Osyntax.role * Osyntax.concept) list;
      (* (R, D) for absorbed axioms ∃R.⊤ ⊑ D *)
  internalized : Osyntax.concept list;
      (* NNF disjunctions added to every node label *)
  mutable budget : int;
  mutable deadline : (unit -> bool) option;
      (* polled on every [spend]: [true] means "give up now" — lets
         callers enforce wall-clock limits without a Unix dependency
         here.  One spend can cost ~10 ms (Galen ×0.1), so a clock read
         per spend is noise *)
}

(** [compile tbox] preprocesses a TBox into a reusable configuration
    (role hierarchy, absorbed unfolding rules, internalized residue). *)
let compile tbox =
  let hierarchy = Hierarchy.build tbox in
  let unfold_name = Hashtbl.create 64 in
  let unfold_domain = ref [] in
  let internalized = ref [] in
  let add_sub c d =
    match c with
    | Osyntax.Name a ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt unfold_name a) in
      Hashtbl.replace unfold_name a (Osyntax.nnf d :: prev)
    | Osyntax.Some_ (r, Osyntax.Top) -> unfold_domain := (r, Osyntax.nnf d) :: !unfold_domain
    | _ ->
      internalized := Osyntax.nnf (Osyntax.Or (Osyntax.Not c, d)) :: !internalized
  in
  List.iter
    (function
      | Osyntax.Sub (c, d) -> add_sub c d
      | Osyntax.Equiv (c, d) ->
        add_sub c d;
        add_sub d c
      | Osyntax.Role_sub _ | Osyntax.Role_disjoint _ -> ())
    tbox;
  {
    hierarchy;
    unfold_name;
    unfold_domain = !unfold_domain;
    internalized = !internalized;
    budget = 0;
    deadline = None;
  }

let poll cfg =
  match cfg.deadline with
  | Some expired when expired () -> raise Budget_exhausted
  | Some _ | None -> ()

let spend cfg =
  cfg.budget <- cfg.budget - 1;
  if cfg.budget <= 0 then raise Budget_exhausted;
  poll cfg

(* --- neighbour queries ------------------------------------------------ *)

(* [r_neighbors cfg st x r] lists node ids that are r-neighbours of x:
   children via an edge whose label is ⊑* r, plus the parent when the
   inverse of the parent edge is ⊑* r. *)
let r_neighbors cfg st x r =
  let n = Imap.find x st.nodes in
  let via_children =
    List.filter_map
      (fun (y, r') -> if Hierarchy.subsumes cfg.hierarchy r' r then Some y else None)
      n.children
  in
  match n.parent with
  | Some (p, rp) when Hierarchy.subsumes cfg.hierarchy (Osyntax.role_inv rp) r ->
    p :: via_children
  | Some _ | None -> via_children

(* --- blocking --------------------------------------------------------- *)

(* Pairwise blocking: x (with parent px) is directly blocked by an
   ancestor w (with parent pw) when L(x) = L(w), L(px) = L(pw) and the
   two parent-edge roles coincide.  x is blocked when some node on its
   ancestor path (x included) is directly blocked. *)
let blocked cfg st x =
  ignore cfg;
  let node = Imap.find x st.nodes in
  let rec ancestors_of y acc =
    match (Imap.find y st.nodes).parent with
    | None -> acc
    | Some (p, _) -> ancestors_of p (p :: acc)
  in
  let directly_blocked y =
    let ny = Imap.find y st.nodes in
    match ny.parent with
    | None -> false
    | Some (py, ry) ->
      let npy = Imap.find py st.nodes in
      let rec up w =
        let nw = Imap.find w st.nodes in
        match nw.parent with
        | None -> false
        | Some (pw, rw) ->
          let npw = Imap.find pw st.nodes in
          (Cset.equal ny.label nw.label
           && Cset.equal npy.label npw.label
           && Osyntax.equal_role ry rw)
          || up pw
      in
      up py
  in
  ignore node;
  List.exists directly_blocked (x :: List.rev (ancestors_of x []))

(* --- label growth ------------------------------------------------------ *)

(* Concepts implied by membership of [c] in a label, via absorption and
   internalization (the latter is added once at node creation). *)
let unfoldings cfg c =
  match c with
  | Osyntax.Name a -> Option.value ~default:[] (Hashtbl.find_opt cfg.unfold_name a)
  | _ -> []

let add_concepts cfg st x cs =
  let n = Imap.find x st.nodes in
  let label =
    List.fold_left
      (fun acc c ->
        let acc = Cset.add c acc in
        List.fold_left (fun acc d -> Cset.add d acc) acc (unfoldings cfg c))
      n.label cs
  in
  (* one more absorption round for concepts the unfoldings introduced *)
  let rec saturate label =
    let extra =
      Cset.fold
        (fun c acc ->
          List.fold_left
            (fun acc d -> if Cset.mem d label then acc else d :: acc)
            acc (unfoldings cfg c))
        label []
    in
    match extra with
    | [] -> label
    | _ -> saturate (List.fold_left (fun l d -> Cset.add d l) label extra)
  in
  let label = saturate label in
  { st with nodes = Imap.add x { n with label } st.nodes }

let has_clash cfg st x =
  let n = Imap.find x st.nodes in
  Cset.mem Osyntax.Bot n.label
  || Cset.exists
       (function
         | Osyntax.Name a -> Cset.mem (Osyntax.Not (Osyntax.Name a)) n.label
         | _ -> false)
       n.label
  ||
  (* role-disjointness clash on the parent edge *)
  (match n.parent with
   | Some (_, r) -> Hierarchy.clashing cfg.hierarchy r r
   | None -> false)

(** [is_deterministic cfg] — no internalized disjunctions survive
    absorption (true for every DL-Lite embedding): the completion is
    then unique and its root label is the *canonical pseudo-model* of
    the input concept.  Pseudo-model caching (below) is only sound under
    this condition — with genuine disjunctions the completion found is
    one of several. *)
let is_deterministic cfg =
  let rec no_or = function
    | Osyntax.Or _ -> false
    | Osyntax.And (c, d) -> no_or c && no_or d
    | Osyntax.Some_ (_, c) | Osyntax.All (_, c) -> no_or c
    | Osyntax.Top | Osyntax.Bot | Osyntax.Name _ | Osyntax.Not _ -> true
  in
  cfg.internalized = []
  && List.for_all (fun (_, d) -> no_or d) cfg.unfold_domain
  && Hashtbl.fold
       (fun _ ds acc -> acc && List.for_all no_or ds)
       cfg.unfold_name true

(* --- the expansion loop ------------------------------------------------ *)

type verdict = Sat | Unsat

(* Apply every applicable *local deterministic* rule found in one scan
   (⊓, ∀ and domain absorption).  Batching keeps the pass count low: a
   single-rule-per-scan strategy is quadratic in the total work and
   dominated the profile.  Returns [None] when nothing applied. *)
let deterministic_pass cfg st =
  let additions = ref [] in (* (node, concepts) *)
  let add x cs = if cs <> [] then additions := (x, cs) :: !additions in
  Imap.iter
    (fun x n ->
      spend cfg;  (* budget counts scanned nodes: bounds real work *)
      let wanted = ref [] in
      Cset.iter
        (fun concept ->
          match concept with
          | Osyntax.And (c, d) ->
            if not (Cset.mem c n.label) then wanted := c :: !wanted;
            if not (Cset.mem d n.label) then wanted := d :: !wanted
          | Osyntax.All (r, c) ->
            List.iter
              (fun y ->
                let ny = Imap.find y st.nodes in
                if not (Cset.mem c ny.label) then additions := (y, [ c ]) :: !additions)
              (r_neighbors cfg st x r)
          | Osyntax.Top | Osyntax.Bot | Osyntax.Name _ | Osyntax.Not _
          | Osyntax.Some_ _ | Osyntax.Or _ -> ())
        n.label;
      List.iter
        (fun (r, d) ->
          if (not (Cset.mem d n.label)) && r_neighbors cfg st x r <> [] then
            wanted := d :: !wanted)
        cfg.unfold_domain;
      add x !wanted)
    st.nodes;
  if !additions = [] then None
  else
    Some
      (List.fold_left
         (fun st (x, cs) ->
           poll cfg; (* not charged: one pass can add for seconds *)
           add_concepts cfg st x cs)
         st !additions)

(* Generating pass: fire unwitnessed, unblocked ∃-restrictions.
   Only called when no other rule applies — generating after the
   disjunctions are resolved keeps the search tree small.

   Deterministic configurations (no disjunctions anywhere) batch every
   pending restriction in one pass: with no backtracking possible, the
   completion is unique and batching turns the pass count from O(tree
   size) into O(tree depth).  With disjunctions present, children are
   created one at a time so each child's own disjunctions resolve before
   the next sibling exists — batching siblings would multiply the
   chronological-backtracking space by the product of their branch
   counts. *)
let create_child cfg st (x, r, c) =
  spend cfg; (* meter creations too: a batched frontier can be huge *)
  let n = Imap.find x st.nodes in
  let y = st.next_id in
  let child = { label = Cset.empty; parent = Some (x, r); children = [] } in
  let st =
    {
      nodes =
        Imap.add y child
          (Imap.add x { n with children = (y, r) :: n.children } st.nodes);
      next_id = y + 1;
    }
  in
  add_concepts cfg st y (c :: cfg.internalized)

let generating_pass cfg st =
  let batch = is_deterministic cfg in
  let pending = ref [] in
  let exception Found of int * Osyntax.role * Osyntax.concept in
  (try
     Imap.iter
       (fun x n ->
         spend cfg;
         Cset.iter
           (fun concept ->
             match concept with
             | Osyntax.Some_ (r, c) ->
               let witnessed =
                 List.exists
                   (fun y -> Cset.mem c (Imap.find y st.nodes).label)
                   (r_neighbors cfg st x r)
               in
               if (not witnessed) && not (blocked cfg st x) then
                 if batch then pending := (x, r, c) :: !pending
                 else raise (Found (x, r, c))
             | _ -> ())
           n.label)
       st.nodes
   with Found (x, r, c) -> pending := [ (x, r, c) ]);
  match !pending with
  | [] -> None
  | creations -> Some (List.fold_left (create_child cfg) st creations)

(* Find one unexpanded disjunction (the only nondeterministic rule). *)
let find_or st =
  let exception Found of int * Osyntax.concept * Osyntax.concept in
  try
    Imap.iter
      (fun x n ->
        Cset.iter
          (function
            | Osyntax.Or (c, d) ->
              if not (Cset.mem c n.label || Cset.mem d n.label) then
                raise (Found (x, c, d))
            | _ -> ())
          n.label)
      st.nodes;
    None
  with Found (x, c, d) -> Some (x, c, d)

let rec expand cfg st =
  spend cfg;
  let clash = Imap.exists (fun x _ -> has_clash cfg st x) st.nodes in
  if clash then Unsat
  else
    match deterministic_pass cfg st with
    | Some st' -> expand cfg st' (* tail-recursive: deep chains are fine *)
    | None -> (
      match find_or st with
      | Some (x, c, d) -> (
        match expand cfg (add_concepts cfg st x [ c ]) with
        | Sat -> Sat
        | Unsat -> expand cfg (add_concepts cfg st x [ d ]))
      | None -> (
        match generating_pass cfg st with
        | Some st' -> expand cfg st'
        | None -> Sat))

(** [satisfiable ?budget cfg c] decides satisfiability of concept [c]
    w.r.t. the compiled TBox [cfg].  [budget] bounds the number of rule
    applications across all branches (default 200_000).
    @raise Budget_exhausted when the bound is hit. *)
let satisfiable ?(budget = 200_000) ?deadline cfg c =
  cfg.budget <- budget;
  cfg.deadline <- deadline;
  let root = { label = Cset.empty; parent = None; children = [] } in
  let st = { nodes = Imap.singleton 0 root; next_id = 1 } in
  let st = add_concepts cfg st 0 (Osyntax.nnf c :: cfg.internalized) in
  match expand cfg st with Sat -> true | Unsat -> false

(** [root_completion ?budget ?deadline cfg c] — run the tableau on [c]
    and, when satisfiable, return the concepts holding at the root of
    the final completion ([None] when unsatisfiable).  Under
    [is_deterministic] this is the root of the canonical model: a
    concept name [B] is entailed at the root iff it is in the returned
    set — one completion answers *all* subsumption questions about [c]
    (the pseudo-model caching used by tableau reasoners on Horn-shaped
    inputs).
    @raise Budget_exhausted as [satisfiable]. *)
let root_completion ?(budget = 200_000) ?deadline cfg c =
  cfg.budget <- budget;
  cfg.deadline <- deadline;
  let root = { label = Cset.empty; parent = None; children = [] } in
  let st = { nodes = Imap.singleton 0 root; next_id = 1 } in
  let st = add_concepts cfg st 0 (Osyntax.nnf c :: cfg.internalized) in
  (* deterministic expansion that keeps the final state *)
  let rec run st =
    spend cfg;
    if Imap.exists (fun x _ -> has_clash cfg st x) st.nodes then None
    else
      match deterministic_pass cfg st with
      | Some st' -> run st'
      | None -> (
        match find_or st with
        | Some (x, c1, c2) -> (
          (* nondeterministic inputs: chronological backtracking, first
             satisfying completion wins *)
          match run (add_concepts cfg st x [ c1 ]) with
          | Some _ as r -> r
          | None -> run (add_concepts cfg st x [ c2 ]))
        | None -> (
          match generating_pass cfg st with
          | Some st' -> run st'
          | None -> Some st))
  in
  match run st with
  | None -> None
  | Some st -> Some (Cset.elements (Imap.find 0 st.nodes).label)

(** [subsumes ?budget ?deadline cfg c d] decides [T ⊨ C ⊑ D] as
    unsatisfiability of [C ⊓ ¬D]. *)
let subsumes ?budget ?deadline cfg c d =
  not (satisfiable ?budget ?deadline cfg (Osyntax.And (c, Osyntax.Not d)))
