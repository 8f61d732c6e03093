(** Minimal in-memory relational store: the "data sources" of the OBDA
    architecture.

    Relations are named, fixed-arity, duplicate-free sets of string
    tuples.  It is the one row store and index implementation of the
    OBDA layer: the source relations behind the mappings, and the
    ontology-level relations of a materialized ABox
    ([Vabox.database_of_abox]), are both planned and evaluated through
    {!source}.

    {b Ordering contract:} a relation is a {e set}.  [rows]/[facts]
    return the tuples in an unspecified order that may change between
    inserts, between builds, and between the naive and indexed
    evaluation paths — consumers must not depend on it.  Anything
    user-visible is normalized at the single place answers are rendered
    (the serving layer and the CLI both sort before printing).

    {b Indexes:} each relation carries hash indexes keyed on
    bound-position patterns — the n-ary generalization of the
    hexastore SPO/POS/OSP layout (for a binary role, the patterns
    [[0]], [[1]] and [[0;1]] are exactly its subject, object and
    subject-object permutation indexes).  An index is built lazily on
    the first [probe] of its pattern and from then on maintained
    incrementally by [insert], so steady-state probes never pay a
    rebuild.  [Cq] plans and executes against them through
    {!source}. *)

type index = (string list, string list list) Hashtbl.t

type relation = {
  arity : int;
  mutable rows : string list list;
  mutable row_set : (string list, unit) Hashtbl.t;
  indexes : (int list, index) Hashtbl.t;
      (** strictly-increasing position pattern -> key -> rows; only the
          patterns some probe has asked for exist *)
}

type t = { relations : (string, relation) Hashtbl.t }

let create () = { relations = Hashtbl.create 16 }

(** [declare db name ~arity] registers a (possibly empty) relation.
    Re-declaring with the same arity is a no-op. *)
let declare db name ~arity =
  match Hashtbl.find_opt db.relations name with
  | Some r when r.arity = arity -> ()
  | Some _ -> invalid_arg (Printf.sprintf "Database.declare: %s arity clash" name)
  | None ->
    Hashtbl.replace db.relations name
      { arity; rows = []; row_set = Hashtbl.create 64; indexes = Hashtbl.create 4 }

(* eager module-level registration: no lazy forcing races across domains *)
let m_inserts = Obs.counter "obda_db_rows_inserted_total"
let m_index_builds = Obs.counter "obda_index_builds_total"

let add_to_index tbl positions row =
  match Cq.key_of_row positions row with
  | Some key ->
    let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (row :: prev)
  | None -> ()

(** [insert db name row] adds a tuple (declaring the relation on first
    use); duplicates are ignored.  Every already-built index of the
    relation is updated in the same call, so a probe immediately after
    an insert sees the new row. *)
let insert db name row =
  (match Hashtbl.find_opt db.relations name with
   | None -> declare db name ~arity:(List.length row)
   | Some r when r.arity <> List.length row ->
     invalid_arg (Printf.sprintf "Database.insert: %s arity mismatch" name)
   | Some _ -> ());
  let r = Hashtbl.find db.relations name in
  if not (Hashtbl.mem r.row_set row) then begin
    Hashtbl.replace r.row_set row ();
    r.rows <- row :: r.rows;
    Hashtbl.iter (fun positions tbl -> add_to_index tbl positions row) r.indexes;
    Obs.Counter.incr m_inserts
  end

(** [insert_all db name rows] bulk-inserts. *)
let insert_all db name rows = List.iter (insert db name) rows

(** [rows db name] is the tuple list of [name] ([[]] never: the empty
    list for unknown relations).  Order is unspecified — see the
    module-level ordering contract. *)
let rows db name =
  match Hashtbl.find_opt db.relations name with Some r -> r.rows | None -> []

(** [facts db] — the plain row function the index-free oracles
    ([Cq.Naive], [Integrity]) read. *)
let facts db name = rows db name

(* the lazily built, incrementally maintained index on a position
   pattern *)
let index r positions =
  match Hashtbl.find_opt r.indexes positions with
  | Some tbl -> tbl
  | None ->
    Obs.Counter.incr m_index_builds;
    let tbl = Hashtbl.create (max 64 (Hashtbl.length r.row_set)) in
    List.iter (fun row -> add_to_index tbl positions row) r.rows;
    Hashtbl.add r.indexes positions tbl;
    tbl

(** [probe db name bound] — the rows of [name] holding value [v] at
    position [i] for every [(i, v)] in [bound] (which must be sorted by
    strictly increasing position).  Empty for unknown relations or
    positions beyond the arity. *)
let probe db name bound =
  match Hashtbl.find_opt db.relations name with
  | None -> []
  | Some r ->
    let tbl = index r (List.map fst bound) in
    Option.value ~default:[] (Hashtbl.find_opt tbl (List.map snd bound))

(** [cardinality db name] — the relation's row count (0 when unknown). *)
let cardinality db name =
  match Hashtbl.find_opt db.relations name with
  | Some r -> Hashtbl.length r.row_set
  | None -> 0

(** [distinct_keys db name positions] — distinct keys in the index on
    [positions]; builds the index if needed. *)
let distinct_keys db name positions =
  match Hashtbl.find_opt db.relations name with
  | None -> 0
  | Some r -> Hashtbl.length (index r positions)

(** [source db] — the database as a [Cq.source]: scans, probes and
    statistics all backed by the persistent indexes above.  This is
    what [Engine.evaluate_compiled] plans against. *)
let source db =
  {
    Cq.all = facts db;
    cardinality = cardinality db;
    probe = probe db;
    distinct_keys = distinct_keys db;
  }

let relation_names db =
  Hashtbl.fold (fun name _ acc -> name :: acc) db.relations [] |> List.sort compare

let size db =
  Hashtbl.fold (fun _ r acc -> acc + List.length r.rows) db.relations 0

let pp fmt db =
  List.iter
    (fun name ->
      Format.fprintf fmt "%s:@." name;
      List.iter
        (fun row -> Format.fprintf fmt "  (%s)@." (String.concat ", " row))
        (List.sort compare (rows db name)))
    (relation_names db)
