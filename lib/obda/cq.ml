(** Conjunctive queries and unions thereof.

    One query language serves two levels: queries over the *ontology*
    vocabulary (concept/role/attribute atoms) and queries over the
    *database* schema after mapping unfolding — atoms are just predicate
    names with a term list, and the evaluator runs over any fact source.

    Terms are variables or constants; the classic "unbound" (non-join,
    non-answer) variable of the DL-Lite rewriting literature is any
    variable that occurs exactly once in the query and is not an answer
    variable. *)

type term =
  | Var of string
  | Const of string
[@@deriving eq, ord, show { with_path = false }]

type atom = {
  pred : string;
  args : term list;
}
[@@deriving eq, ord, show { with_path = false }]

type t = {
  answer_vars : string list;  (** distinguished variables, in output order *)
  body : atom list;
}
[@@deriving eq, ord, show { with_path = false }]

(** A union of conjunctive queries; all disjuncts must share the
    answer-variable arity. *)
type ucq = t list

let atom pred args = { pred; args }

(** [make answer_vars body] builds a query after sanity checks: answer
    variables must occur in the body. *)
let make answer_vars body =
  let occurs v =
    List.exists (fun a -> List.exists (equal_term (Var v)) a.args) body
  in
  List.iter
    (fun v ->
      if not (occurs v) then
        invalid_arg (Printf.sprintf "Cq.make: answer variable %s not in body" v))
    answer_vars;
  { answer_vars; body }

(** [vars q] is the list of distinct variables of [q], body order. *)
let vars q =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  List.iter
    (fun a ->
      List.iter
        (function
          | Var v ->
            if not (Hashtbl.mem seen v) then begin
              Hashtbl.add seen v ();
              acc := v :: !acc
            end
          | Const _ -> ())
        a.args)
    q.body;
  List.rev !acc

(** [occurrences q v] counts how many argument positions hold [v]. *)
let occurrences q v =
  List.fold_left
    (fun n a ->
      n + List.length (List.filter (equal_term (Var v)) a.args))
    0 q.body

(** [is_bound q v] — bound variables are answer variables and join
    variables (occurring more than once); everything else is "unbound"
    in the PerfectRef sense. *)
let is_bound q v = List.mem v q.answer_vars || occurrences q v > 1

(* ------------------------------------------------------------------ *)
(* Substitutions                                                       *)
(* ------------------------------------------------------------------ *)

module Subst = Map.Make (String)

let apply_term subst = function
  | Var v as t -> (match Subst.find_opt v subst with Some t' -> t' | None -> t)
  | Const _ as t -> t

let apply_atom subst a = { a with args = List.map (apply_term subst) a.args }

let apply subst q =
  {
    answer_vars = q.answer_vars;  (* answer vars are never substituted away here *)
    body = List.map (apply_atom subst) q.body;
  }

(* ------------------------------------------------------------------ *)
(* Homomorphisms and containment                                       *)
(* ------------------------------------------------------------------ *)

(* Extend [subst] so that [apply_term subst t1 = t2]; [None] on clash. *)
let match_term subst t1 t2 =
  match t1 with
  | Const c1 -> (match t2 with Const c2 when c1 = c2 -> Some subst | _ -> None)
  | Var v -> (
    match Subst.find_opt v subst with
    | Some t when equal_term t t2 -> Some subst
    | Some _ -> None
    | None -> Some (Subst.add v t2 subst))

let match_atom subst a1 a2 =
  if a1.pred <> a2.pred || List.length a1.args <> List.length a2.args then None
  else
    List.fold_left2
      (fun acc t1 t2 -> match acc with None -> None | Some s -> match_term s t1 t2)
      (Some subst) a1.args a2.args

(** [contains q1 q2] — [q2 ⊆ q1] as queries (every answer of [q2] is an
    answer of [q1]), decided by homomorphism from [q1] into [q2] with
    [q2]'s variables frozen as constants. *)
let contains q1 q2 =
  let freeze q =
    let fv = List.map (fun v -> (v, Const ("?" ^ v))) (vars q) in
    let subst = List.fold_left (fun s (v, t) -> Subst.add v t s) Subst.empty fv in
    {
      answer_vars = [];
      body = List.map (apply_atom subst) q.body;
    }
  in
  let frozen = freeze q2 in
  (* answer-variable correspondence: map q1's answer vars to q2's frozen
     answer terms *)
  if List.length q1.answer_vars <> List.length q2.answer_vars then false
  else
    let init =
      List.fold_left2
        (fun s v1 v2 -> Subst.add v1 (Const ("?" ^ v2)) s)
        Subst.empty q1.answer_vars q2.answer_vars
    in
    let rec go subst = function
      | [] -> true
      | a :: rest ->
        List.exists
          (fun b ->
            match match_atom subst a b with
            | Some subst' -> go subst' rest
            | None -> false)
          frozen.body
    in
    go init q1.body

(** [minimize_ucq ucq] removes disjuncts contained in another disjunct
    (keeping the first of two equivalent ones) — the standard final step
    of PerfectRef, without which rewritings explode. *)
let minimize_ucq ucq =
  let arr = Array.of_list ucq in
  let n = Array.length arr in
  let dropped = Array.make n false in
  for i = 0 to n - 1 do
    let redundant =
      (* an earlier kept disjunct already covers i (this also picks one
         representative of each equivalence class) ... *)
      (let found = ref false in
       for j = 0 to i - 1 do
         if (not !found) && (not dropped.(j)) && contains arr.(j) arr.(i) then
           found := true
       done;
       !found)
      ||
      (* ... or a later disjunct covers i strictly *)
      let found = ref false in
      for j = i + 1 to n - 1 do
        if (not !found) && contains arr.(j) arr.(i) && not (contains arr.(i) arr.(j))
        then found := true
      done;
      !found
    in
    dropped.(i) <- redundant
  done;
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if not dropped.(i) then acc := arr.(i) :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(** The reference evaluator: the original backtracking scan, kept
    verbatim as the oracle the cost-based executor below is
    differentially tested against (the [indexed] conformance subject,
    the qcheck equivalence properties, and the planner regression
    tests all compare against this module). *)
module Naive = struct
  (** [evaluate ~facts q] computes the answer tuples of [q] over the fact
      source [facts : pred -> string list list] by backtracking joins.
      When an atom has an argument already bound (a constant, or a join
      variable bound by an earlier atom), candidate rows come from a
      lazily built hash index on that column instead of a full relation
      scan.  Duplicate answers are removed; tuple order is
      unspecified. *)
  let evaluate ~facts q =
    let results = Hashtbl.create 16 in
    (* (pred, column) -> value -> rows; built on first use *)
    let indexes = Hashtbl.create 8 in
    let column_index pred i =
      match Hashtbl.find_opt indexes (pred, i) with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun row ->
            match List.nth_opt row i with
            | Some key ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
              Hashtbl.replace tbl key (row :: prev)
            | None -> ())
          (facts pred);
        Hashtbl.add indexes (pred, i) tbl;
        tbl
    in
    let candidates subst a =
      let rec first_bound i = function
        | [] -> None
        | t :: rest -> (
          match apply_term subst t with
          | Const c -> Some (i, c)
          | Var _ -> first_bound (i + 1) rest)
      in
      match first_bound 0 a.args with
      | None -> facts a.pred
      | Some (i, c) ->
        Option.value ~default:[] (Hashtbl.find_opt (column_index a.pred i) c)
    in
    let rec go subst = function
      | [] ->
        let tuple =
          List.map
            (fun v ->
              match Subst.find_opt v subst with
              | Some (Const c) -> c
              | Some (Var _) | None ->
                invalid_arg "Cq.evaluate: unbound answer variable")
            q.answer_vars
        in
        Hashtbl.replace results tuple ()
      | a :: rest ->
        List.iter
          (fun row ->
            if List.length row = List.length a.args then
              let matched =
                List.fold_left2
                  (fun acc t v ->
                    match acc with
                    | None -> None
                    | Some s -> match_term s t (Const v))
                  (Some subst) a.args row
              in
              match matched with Some s -> go s rest | None -> ())
          (candidates subst a)
    in
    go Subst.empty q.body;
    Hashtbl.fold (fun tuple () acc -> tuple :: acc) results []

  (** [evaluate_ucq ~facts ucq] is the deduplicated union of the
      disjunct answers. *)
  let evaluate_ucq ~facts ucq =
    let results = Hashtbl.create 16 in
    List.iter
      (fun q -> List.iter (fun t -> Hashtbl.replace results t ()) (evaluate ~facts q))
      ucq;
    Hashtbl.fold (fun t () acc -> t :: acc) results []
end

(* ------------------------------------------------------------------ *)
(* Fact sources                                                        *)
(* ------------------------------------------------------------------ *)

(** A fact source the cost-based executor can plan against.  Beyond the
    plain scan of the [facts]-function interface it exposes hash-index
    probes on bound-position patterns and the two statistics the
    planner's selectivity estimate needs.  [Database.source] backs this
    with persistent, incrementally maintained indexes; it is the one
    index implementation the executor runs on. *)
type source = {
  all : string -> string list list;
      (** every row of a relation (set semantics: order unspecified) *)
  cardinality : string -> int;  (** row count of a relation *)
  probe : string -> (int * string) list -> string list list;
      (** [probe pred [(i, v); ...]] — the rows whose column [i] holds
          [v] for every pair; pairs must be sorted by strictly
          increasing position *)
  distinct_keys : string -> int list -> int;
      (** number of distinct keys in the index on the given (strictly
          increasing) position pattern — the planner divides by this to
          estimate the rows one probe returns *)
}

(* the key a row contributes to the index on [positions]; [None] when
   the row is too short to have all of them (it then can't match any
   atom probing that pattern either) *)
let key_of_row positions row =
  let rec go positions i row acc =
    match positions with
    | [] -> Some (List.rev acc)
    | p :: ps -> (
      match row with
      | [] -> None
      | v :: rest ->
        if p = i then go ps (i + 1) rest (v :: acc)
        else go positions (i + 1) rest acc)
  in
  go positions 0 row []

(* ------------------------------------------------------------------ *)
(* Cost-based execution: selectivity-ordered plans, adaptive joins      *)
(* ------------------------------------------------------------------ *)

(* eager module-level registration: no lazy forcing races across domains *)
let m_nested_loop =
  Obs.counter ~labels:[ ("strategy", "nested_loop") ] "obda_join_strategy_total"
let m_hash = Obs.counter ~labels:[ ("strategy", "hash") ] "obda_join_strategy_total"
let m_probes = Obs.counter "obda_index_probes_total"

(** Intermediate-binding cardinality at which a join step switches from
    scan-and-filter nested loops to index-probe hash joins.  Below it,
    scanning a relation once per binding is cheaper than touching (and
    possibly building) the pattern index; above it, the per-binding
    probe amortizes the build.  Override per call with
    [?join_threshold]: [0] forces hash everywhere, [max_int] forces
    nested loops everywhere (both are exercised by the equivalence
    properties in the test suite). *)
let default_join_threshold = 32

module VarSet = Set.Make (String)

let atom_vars a =
  List.fold_left
    (fun acc -> function Var v -> VarSet.add v acc | Const _ -> acc)
    VarSet.empty a.args

(* the argument positions of [a] that are bound given [bound_vars]:
   constants, and variables every binding of the current intermediate
   set assigns (all bindings share one domain, so boundness is a
   property of the step, not of the individual binding) *)
let bound_positions bound_vars a =
  let rec go i = function
    | [] -> []
    | Const c :: rest -> (i, `Const c) :: go (i + 1) rest
    | Var v :: rest ->
      if VarSet.mem v bound_vars then (i, `Var v) :: go (i + 1) rest
      else go (i + 1) rest
  in
  go 0 a.args

(* estimated rows one binding retrieves from [a]: the index cardinality
   under the current binding set.  All-constant patterns probe the real
   index (exact); patterns with bound variables use rows / distinct-keys
   (the average bucket size); unconstrained atoms cost a full scan. *)
let estimate source bound_vars a =
  let bp = bound_positions bound_vars a in
  if bp = [] then float_of_int (source.cardinality a.pred)
  else if List.for_all (fun (_, k) -> match k with `Const _ -> true | `Var _ -> false) bp
  then
    float_of_int
      (List.length
         (source.probe a.pred
            (List.map (fun (i, k) -> (i, match k with `Const c -> c | `Var _ -> assert false)) bp)))
  else
    let d = source.distinct_keys a.pred (List.map fst bp) in
    if d = 0 then 0.0
    else float_of_int (source.cardinality a.pred) /. float_of_int d

(** [plan atoms] orders a body — each atom paired with the source it
    reads — greedily by estimated selectivity: repeatedly pick the
    cheapest atom under the variables bound so far (ties keep body
    order), then mark its variables bound.  Cheap atoms shrink the
    intermediate binding set before expensive ones multiply it — the
    classic greedy join order, using live index statistics as the cost
    model.  Per-atom sources are what lets a delta rule (one atom over
    the new rows only) start from its tiny atom. *)
let plan atoms =
  let rec go bound_vars remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let best, _ =
        List.fold_left
          (fun (best, best_cost) ((source, a) as sa) ->
            let cost = estimate source bound_vars a in
            match best with
            | None -> (Some sa, cost)
            | Some _ when cost < best_cost -> (Some sa, cost)
            | Some _ -> (best, best_cost))
          (None, infinity) remaining
      in
      let ((_, a) as sa) = Option.get best in
      go
        (VarSet.union bound_vars (atom_vars a))
        (List.filter (fun b -> b != sa) remaining)
        (sa :: acc)
  in
  go VarSet.empty atoms []

(* --- compiled positional form ------------------------------------- *)

(* The executor does not run on [Subst] maps: a planned query is
   compiled once into positional form — every variable gets a slot in a
   string array, and each atom's argument list becomes a per-position
   check/write spec.  Extending a binding is then an array copy plus a
   few string equalities instead of a chain of map insertions, which is
   where the bulk of the join time goes on large intermediate sets. *)

(* sentinel for an unassigned slot, tested by physical equality only —
   row values come from the fact source and can never be this block *)
let unbound : string = Sys.opaque_identity (String.make 1 '\255')

type pos_spec =
  | P_const of string  (* position must hold this constant *)
  | P_eq of int        (* slot is already assigned: must hold its value *)
  | P_set of int       (* first occurrence of the variable: assign slot *)

(* match a row against a compiled spec, extending [binding].  The copy
   is lazy: filter-only atoms (no [P_set]) hand back the original array,
   which is safe to share because every later write copies first. *)
let match_row_c spec arity binding row =
  if List.compare_length_with row arity <> 0 then None
  else begin
    let b = ref binding and copied = ref false in
    let rec go spec row =
      match (spec, row) with
      | [], [] -> Some !b
      | P_const c :: sp, v :: vs -> if String.equal c v then go sp vs else None
      | P_eq s :: sp, v :: vs -> if String.equal !b.(s) v then go sp vs else None
      | P_set s :: sp, v :: vs ->
        if not !copied then begin
          b := Array.copy binding;
          copied := true
        end;
        !b.(s) <- v;
        go sp vs
      | _ -> None
    in
    go spec row
  end

(* match a row against a compiled spec in a caller-owned scratch array:
   [binding] is blitted in, then checks read and [P_set] writes go to
   [scratch].  Used by the fused final step, where the extended binding
   is only ever projected, never kept — no per-row allocation at all. *)
let match_row_scratch spec arity scratch binding row =
  if List.compare_length_with row arity <> 0 then false
  else begin
    Array.blit binding 0 scratch 0 (Array.length binding);
    let rec go spec row =
      match (spec, row) with
      | [], [] -> true
      | P_const c :: sp, v :: vs -> String.equal c v && go sp vs
      | P_eq s :: sp, v :: vs -> String.equal scratch.(s) v && go sp vs
      | P_set s :: sp, v :: vs ->
        scratch.(s) <- v;
        go sp vs
      | _ -> false
    in
    go spec row
  end

(* Dedicated dedup sink for answer tuples.  Profiling the 100k-tuple
   sweep shows the single biggest cost of a large answer set is not the
   join but materializing its deduplicated tuples: a [Hashtbl] that
   starts small pays a full rehash at every doubling, and the stdlib
   offers no way to pre-size an existing table.  This sink is a plain
   power-of-two bucket table with an explicit [reserve] — the executor
   reserves the exact candidate count right before the final join step,
   so bulk insertion never rehashes — shared across the disjuncts of a
   UCQ so the union is deduplicated exactly once. *)
module Tuple_sink = struct
  type t = {
    mutable buckets : string list list array;
    mutable count : int;  (* distinct tuples stored *)
  }

  (* hand-specialized hash and equality: the generic [Hashtbl.hash] /
     polymorphic compare pair costs ~25% more per insert on a
     100k-answer set than folding [String.hash] over the tuple and a
     [String.equal] loop *)
  let hash_tuple tuple = List.fold_left (fun h s -> (h * 31) + String.hash s) 17 tuple

  let rec eq_tuple a b =
    match (a, b) with
    | [], [] -> true
    | x :: xs, y :: ys -> String.equal x y && eq_tuple xs ys
    | _ -> false

  let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

  (* bucket arrays beyond this are past any plausible answer set; a
     reserve above it degrades to longer chains, never to failure *)
  let max_buckets = 1 lsl 22

  let create n = { buckets = Array.make (pow2_at_least (max 16 n) 16) []; count = 0 }

  let rehash t size =
    let old = t.buckets in
    t.buckets <- Array.make size [];
    let mask = size - 1 in
    Array.iter
      (List.iter (fun tuple ->
           let i = hash_tuple tuple land mask in
           t.buckets.(i) <- tuple :: t.buckets.(i)))
      old

  (** [reserve t n] sizes the table for [n] total tuples (a load factor
      of ~1) without moving anything when already big enough. *)
  let reserve t n =
    let size = pow2_at_least (min n max_buckets) 16 in
    if size > Array.length t.buckets then rehash t size

  let add t tuple =
    let i = hash_tuple tuple land (Array.length t.buckets - 1) in
    let bucket = t.buckets.(i) in
    let rec mem = function
      | [] -> false
      | u :: rest -> eq_tuple u tuple || mem rest
    in
    if not (mem bucket) then begin
      t.buckets.(i) <- tuple :: bucket;
      t.count <- t.count + 1;
      if t.count > 2 * Array.length t.buckets && Array.length t.buckets < max_buckets
      then rehash t (2 * Array.length t.buckets)
    end

  let to_list t = Array.fold_left (fun acc b -> List.rev_append b acc) [] t.buckets
end

(* the candidate rows of one join step, as a function of the binding.
   Strategy is adaptive on the intermediate cardinality: small binding
   sets scan-and-filter (nested loop — no index touched, one row list
   shared by every binding), large ones probe the pattern hash index on
   the step's bound positions (hash join — one probe per call).  Atoms
   with no bound position can only scan.  Counts the strategy once per
   step and every probe. *)
let candidates_of join_threshold bindings (source, a, _, _, bp) =
  if bp <> [] && List.compare_length_with bindings join_threshold >= 0 then begin
    Obs.Counter.incr m_hash;
    fun binding ->
      let key =
        List.map
          (fun (i, k) ->
            match k with `Const c -> (i, c) | `Slot s -> (i, binding.(s)))
          bp
      in
      Obs.Counter.incr m_probes;
      source.probe a.pred key
  end
  else begin
    Obs.Counter.incr m_nested_loop;
    let rows = source.all a.pred in
    fun _ -> rows
  end

(* one join step: extend every binding through the compiled atom *)
let step_c join_threshold bindings ((_, _, spec, arity, _) as step) =
  let candidates = candidates_of join_threshold bindings step in
  let out = ref [] in
  List.iter
    (fun binding ->
      List.iter
        (fun row ->
          match match_row_c spec arity binding row with
          | Some b -> out := b :: !out
          | None -> ())
        (candidates binding))
    bindings;
  !out

(* project a (fully extended) binding onto the answer slots; [-1] marks
   an answer variable absent from the body *)
let project_binding proj binding =
  List.map
    (fun s ->
      if s < 0 then invalid_arg "Cq.evaluate: unbound answer variable"
      else
        let v = binding.(s) in
        if v == unbound then invalid_arg "Cq.evaluate: unbound answer variable"
        else v)
    proj

(* the core executor: plan, compile to positional form, run every step
   but the last through [step_c], then fuse the last step with
   projection and deduplication — candidate rows are counted first so
   the sink can [reserve] exactly, and each extension lives only in a
   reusable scratch array.  Every atom reads [source], except the one
   at body position [i] when [delta = Some (i, d)]: that one reads [d]. *)
let evaluate_into ?delta ~sink ~join_threshold ~source q =
  let ordered =
    plan
      (List.mapi
         (fun i a ->
           match delta with
           | Some (j, d) when i = j -> (d, a)
           | _ -> (source, a))
         q.body)
  in
  (* variable -> slot *)
  let slots = Hashtbl.create 8 in
  let nslots = ref 0 in
  let slot_of v =
    match Hashtbl.find_opt slots v with
    | Some s -> s
    | None ->
      let s = !nslots in
      incr nslots;
      Hashtbl.add slots v s;
      s
  in
  let compiled =
    let bound = ref VarSet.empty in
    List.map
      (fun (source, a) ->
        let bp =
          List.map
            (fun (i, k) ->
              (i, match k with `Const c -> `Const c | `Var v -> `Slot (slot_of v)))
            (bound_positions !bound a)
        in
        let seen = Hashtbl.create 4 in
        let spec =
          List.map
            (function
              | Const c -> P_const c
              | Var v ->
                let s = slot_of v in
                if VarSet.mem v !bound || Hashtbl.mem seen v then P_eq s
                else begin
                  Hashtbl.add seen v ();
                  P_set s
                end)
            a.args
        in
        bound := VarSet.union !bound (atom_vars a);
        (source, a, spec, List.length a.args, bp))
      ordered
  in
  let proj =
    List.map
      (fun v -> match Hashtbl.find_opt slots v with Some s -> s | None -> -1)
      q.answer_vars
  in
  match List.rev compiled with
  | [] ->
    (* empty body: one empty binding, projected as-is *)
    Tuple_sink.add sink (project_binding proj (Array.make !nslots unbound))
  | last :: rev_init ->
    let bindings =
      List.fold_left
        (step_c join_threshold)
        [ Array.make !nslots unbound ]
        (List.rev rev_init)
    in
    let _, _, spec, arity, _ = last in
    (* pair every binding with its candidate rows up front: the total
       candidate count (an upper bound on new tuples) drives the sink's
       reserve, and each index is probed exactly once per binding *)
    let candidates =
      let rows_of = candidates_of join_threshold bindings last in
      List.map (fun binding -> (binding, rows_of binding)) bindings
    in
    let total =
      List.fold_left (fun acc (_, rows) -> acc + List.length rows) 0 candidates
    in
    Tuple_sink.reserve sink (sink.Tuple_sink.count + total);
    let scratch = Array.make !nslots unbound in
    List.iter
      (fun (binding, rows) ->
        List.iter
          (fun row ->
            if match_row_scratch spec arity scratch binding row then
              Tuple_sink.add sink (project_binding proj scratch))
          rows)
      candidates

(** [evaluate ?join_threshold ~source q] — the cost-based executor:
    order the atoms by {!plan}, compile the plan to positional form
    (variable slots in a string array instead of substitution maps),
    then pipe an intermediate binding set through one adaptive join
    {!step_c} per atom; the final step is fused with projection and
    deduplication.  Same answers as {!Naive.evaluate} (set semantics;
    duplicate answers removed, tuple order unspecified), differentially
    enforced by the test suite. *)
let evaluate ?(join_threshold = default_join_threshold) ~source q =
  let sink = Tuple_sink.create 16 in
  evaluate_into ~sink ~join_threshold ~source q;
  Tuple_sink.to_list sink

(** [evaluate_ucq ?join_threshold ~source ucq] is the deduplicated
    union of the disjunct answers, sharing [source] (and hence its
    indexes) across disjuncts — and sharing one dedup sink, so the
    union costs no second pass over the tuples. *)
let evaluate_ucq ?(join_threshold = default_join_threshold) ~source ucq =
  let sink = Tuple_sink.create 16 in
  List.iter (fun q -> evaluate_into ~sink ~join_threshold ~source q) ucq;
  Tuple_sink.to_list sink

(** [evaluate_ucq_delta ?join_threshold ~source ~delta ucq] — the delta
    rule of a UCQ under insertion.  [source] is the whole database
    {e after} the insert and [delta] holds the inserted rows.  For every
    disjunct and every body position [i] whose relation has rows in
    [delta], the disjunct runs with atom [i] reading [delta] and every
    other atom reading [source].  Any answer over [source] that is not
    an answer over [source] minus [delta] uses some inserted row at some
    position, so it is found (UCQs are monotone); everything found is an
    answer over [source].  Hence {!merge_answers} of the old answers and
    these is exactly the new answer set, even when [delta] repeats rows
    that were already present.  Positions, not relation names, pick the
    delta atom, so a self-join runs once per occurrence. *)
let evaluate_ucq_delta ?(join_threshold = default_join_threshold) ~source ~delta
    ucq =
  let sink = Tuple_sink.create 16 in
  List.iter
    (fun q ->
      List.iteri
        (fun i a ->
          if delta.cardinality a.pred > 0 then
            evaluate_into ~delta:(i, delta) ~sink ~join_threshold ~source q)
        q.body)
    ucq;
  Tuple_sink.to_list sink

(* ------------------------------------------------------------------ *)
(* Canonical answer order                                              *)
(* ------------------------------------------------------------------ *)

(** [compare_tuple a b] — the one order answer tuples are canonicalized
    in: element-wise [String.compare], a proper prefix first.  It is
    exactly the order polymorphic [compare] gives string lists, so
    rendered replies stay byte-identical, but it dispatches on no tags
    (about twice as fast when sorting a large answer set). *)
let rec compare_tuple a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
    let c = String.compare x y in
    if c <> 0 then c else compare_tuple xs ys

(** [sort_answers tuples] — sorted by {!compare_tuple}, duplicates
    removed: the canonical form of an answer set. *)
let sort_answers tuples = List.sort_uniq compare_tuple tuples

(** [merge_answers old fresh] — the canonical union of two canonical
    answer lists, in one linear pass.  The part of [old] past the last
    tuple of [fresh] is shared, not copied. *)
let[@tail_mod_cons] rec merge_answers old fresh =
  match (old, fresh) with
  | _, [] -> old
  | [], _ -> fresh
  | o :: os, f :: fs ->
    let c = compare_tuple o f in
    if c < 0 then o :: merge_answers os fresh
    else if c > 0 then f :: merge_answers old fs
    else o :: merge_answers os fs

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_term_ascii fmt = function
  | Var v -> Format.fprintf fmt "?%s" v
  | Const c -> Format.pp_print_string fmt c

let pp_atom_ascii fmt a =
  Format.fprintf fmt "%s(%a)" a.pred
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       pp_term_ascii)
    a.args

let pp_ascii fmt q =
  Format.fprintf fmt "q(%s) :- %a"
    (String.concat ", " (List.map (fun v -> "?" ^ v) q.answer_vars))
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       pp_atom_ascii)
    q.body

let to_string q = Format.asprintf "%a" pp_ascii q
