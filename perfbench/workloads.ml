(* The three workloads, each defined once as a request stream: the
   set-up requests, an endless supply of closed-loop cycles and the
   probe cycles sent after the window.  The end-to-end run (drive.ml)
   sends the stream to the real server; the traced run replays a
   prefix of the same stream in-process.

   Oracles never ask the server: point lookups are answered from the
   generated rows, the prepared queries over the university instance by
   the naive evaluator over the same facts, ontology edits by an
   in-process engine on the same TBox. *)

module Wire = Server.Wire
module Datagen = Ontgen.Datagen
open Inputs

type kind = Ask | Write | Other

(** How a reply is checked.  [Later] comparisons run after the window;
    [Now] runs as soon as the reply is in, with the clock paused, for an
    oracle that reads state the next cycle changes. *)
type check = Unchecked | Later of (string list -> bool) | Now of (string list -> bool)

type step = { req : Wire.request; kind : kind; check : check }

(** One round of the closed loop.  With [edit], the time from the
    round's first request to its last reply is an edit_to_answer
    sample. *)
type cycle = { steps : step list; edit : bool }

type t = {
  setup : Wire.request list;  (** TBox, mappings, BULK chunks, PREPAREs *)
  check : unit -> Wire.request * string list;
      (** the ask that marks set-up and recovery complete, with its
          expected reply at the current state *)
  conns : int;
  next : unit -> cycle;  (** safe to call from several threads *)
  probe : cycle list;  (** sent after the window *)
  rows : (string * string list) list Lazy.t;  (** the source tuples *)
}

let render tuples = List.map Server.Service.render_tuple (List.sort_uniq compare tuples)

let parse_tbox lines =
  match Dllite.Parser.tbox_of_string (String.concat "\n" lines) with
  | Result.Ok t -> t
  | Result.Error e -> failwith ("tbox: " ^ e)

let parse_query tbox text =
  Obda.Qparse.parse_query ~signature:(Dllite.Tbox.signature tbox) text

let ask_inline text = Wire.Ask { session; query = Wire.Inline text }
let ask_named name = Wire.Ask { session; query = Wire.Named name }
let load kind payload = Wire.Load { session; kind; payload }
let step ?(check = Unchecked) kind req = { req; kind; check }

(** The FACTS lines of the set-up's BULK chunks. *)
let facts w =
  List.concat_map (function Wire.Bulk_chunk { payload; _ } -> payload | _ -> []) w.setup

let rows_of (d : data) =
  lazy
    (let db = d.instance.Datagen.database in
     List.concat_map
       (fun rel -> List.map (fun r -> (rel, r)) (Obda.Database.rows db rel))
       (Obda.Database.relation_names db))

let serialized next =
  let mu = Mutex.create () in
  fun () -> Mutex.protect mu next

let setup_of (d : data) ~tbox =
  load_requests ~tbox ~mappings:(mappings_lines d.instance) ~facts:d.fact_lines

(* The prepared queries' reference answers: Cq.Naive over the facts of
   [d]'s database (which join-update keeps in step with the server),
   memoized per database size.  The naive evaluator joins in body order,
   and the unfolded ta-of-professor lists t_staff before t_assist — a
   scan of t_assist per professor, 1.3 s — so each disjunct goes in
   connected order, smallest relation first: the same query, evaluated
   by the same oracle. *)
let naive_oracle (d : data) =
  let db = d.instance.Datagen.database in
  let engine = Datagen.engine d.instance in
  let tbox = d.instance.Datagen.tbox in
  let compiled =
    List.map
      (fun (name, text) -> (name, Obda.Engine.compile engine [ parse_query tbox text ]))
      prepared
  in
  let connected (q : Obda.Cq.t) =
    let vars (a : Obda.Cq.atom) =
      List.filter_map (function Obda.Cq.Var v -> Some v | Obda.Cq.Const _ -> None) a.args
    in
    let size (a : Obda.Cq.atom) = Obda.Database.cardinality db a.pred in
    let smallest = function
      | [] -> None
      | a :: rest -> Some (List.fold_left (fun b x -> if size x < size b then x else b) a rest)
    in
    let rec order seen acc remaining =
      let linked = List.filter (fun a -> List.exists (fun v -> List.mem v seen) (vars a)) remaining in
      match smallest (if linked = [] then remaining else linked) with
      | None -> List.rev acc
      | Some a -> order (vars a @ seen) (a :: acc) (List.filter (fun b -> b != a) remaining)
    in
    { q with body = order [] [] q.body }
  in
  let memo = Hashtbl.create 8 in
  fun name ->
    let key = (name, Obda.Database.size db) in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
      let r =
        render
          (Obda.Cq.Naive.evaluate_ucq ~facts:(Obda.Database.facts db)
             (List.map connected (List.assoc name compiled)))
      in
      Hashtbl.replace memo key r;
      r

(* ----------------------------- edit probe ----------------------------- *)

(* After the window of point-lookup and join-update: TBox edits, each
   followed by a batch of prepared queries; edit_to_answer_ms is the
   median edit-to-last-answer time.  A probe edit adds a fresh concept
   under Person: a new fingerprint, the same answers.  The batch does
   tens of milliseconds of work, so the server's 1 ms result poll moves
   it by a few percent; a batch of sixteen ~1 ms lookups shifted by up
   to a millisecond each as the machine's speed drifted.  The answers
   are those of the state after the window, computed when checked. *)
let probe_edits = 40
let probe_batch = [ "persons"; "faculty"; "ta-of-professor" ]

let edit_probe ~tbox ~expected =
  let batch =
    List.map
      (fun q ->
        let answer = lazy (expected q) in
        step Ask (ask_named q) ~check:(Later (fun lines -> lines = Lazy.force answer)))
      probe_batch
  in
  List.init probe_edits (fun i ->
      let edited =
        tbox @ [ Printf.sprintf "concept Visitor%d" (i + 1);
                 Printf.sprintf "Visitor%d [= Person" (i + 1) ]
      in
      (* not a write sample: write_p50_ms stays one class *)
      { steps = step Other (load Wire.K_tbox edited) :: batch; edit = true })

(* ---------------------------- point-lookup ---------------------------- *)

(* point-lookup's write_p50_ms: one-row loads after the window, into a
   relation no mapping reads *)
let probe_writes = 200

let point_lookup ~seed ~(scale : scale) =
  let d = university ~persons:scale.persons in
  let lookup = lookup_oracle d in
  let next = lookup_stream ~seed ~persons:scale.persons in
  (* the same readiness ask for every seed: set-up and recovery end
     with it, and a cold attends lookup takes tens of milliseconds
     longer than a cold teaches one *)
  let first = { role = "attends"; person = "p0" } in
  let answer l = render (List.map (fun c -> [ c ]) (lookup l)) in
  let ask l = ask_inline (lookup_text l) in
  let tbox = tbox_lines Datagen.university_tbox in
  let writes =
    List.init probe_writes (fun i ->
        { steps =
            [ step Write
                (load Wire.K_facts
                   [ Server.Service.fact_line "t_probe" [ Printf.sprintf "w%d" (i + 1) ] ]) ];
          edit = false })
  in
  {
    setup = setup_of d ~tbox;
    check = (fun () -> (ask first, answer first));
    conns = 2;
    next =
      serialized (fun () ->
          let l = next () in
          { steps = [ step Ask (ask l) ~check:(Later (fun lines -> lines = answer l)) ];
            edit = false });
    probe = writes @ edit_probe ~tbox ~expected:(naive_oracle d);
    rows = rows_of d;
  }

(* ----------------------------- join-update ---------------------------- *)

(* Each cycle loads one new row, inserted into the oracle's database as
   the cycle is drawn, then asks a prepared join.  The 1st, 2nd, 4th,
   8th ... ask of the selective join and the first of the large one are
   checked (the naive evaluator takes a second on the large one), at
   once: the next cycle changes the state the oracle reads. *)
let join_update ~seed ~(scale : scale) =
  let d = university ~persons:scale.persons in
  let db = d.instance.Datagen.database in
  let expected = naive_oracle d in
  let next = join_rounds ~seed ~persons:scale.persons in
  let tbox = tbox_lines d.instance.Datagen.tbox in
  let seen = Hashtbl.create 2 in
  let cycle () =
    let rel, row, query = next () in
    Obda.Database.insert db rel row;
    let k = 1 + Option.value ~default:0 (Hashtbl.find_opt seen query) in
    Hashtbl.replace seen query k;
    let sampled = if query = "taught-attended" then k = 1 else k land (k - 1) = 0 in
    let check = if sampled then Now (fun lines -> lines = expected query) else Unchecked in
    { steps =
        [ step Write (load Wire.K_facts [ Server.Service.fact_line rel row ]);
          step Ask (ask_named query) ~check ];
      edit = false }
  in
  {
    setup = setup_of d ~tbox;
    check = (fun () -> (ask_named "ta-of-professor", expected "ta-of-professor"));
    conns = 1;
    next = serialized cycle;
    probe = edit_probe ~tbox ~expected;
    rows = rows_of d;
  }

(* ---------------------------- ontology-edit --------------------------- *)

(* The four prepared queries cold, then the two small-answer ones four
   times each from the answer cache.  Two thirds of the asks are those
   cheap hits, so the median sits inside one class, and p95 in the
   largest join's misses; with the four alone the median would fall
   between two queries whose costs move with the links, and a hit on a
   large answer still pays its rendering. *)
let ask_batch =
  let small = [ "faculty"; "ta-of-professor" ] in
  List.map fst prepared @ small @ small @ small @ small

let ontology_edit ~seed ~(scale : scale) =
  let d, base, next = ontology ~seed ~scale in
  (* the in-process engine on the same TBox text, same mappings and
     facts; memoized per link set (reverts re-hit) *)
  let oracles = Hashtbl.create 16 in
  let expected links name =
    let key = (links, name) in
    match Hashtbl.find_opt oracles key with
    | Some r -> r
    | None ->
      let tbox = parse_tbox (base @ links) in
      let engine =
        Obda.Engine.create ~tbox ~mappings:d.instance.Datagen.mappings
          ~database:d.instance.Datagen.database ()
      in
      let r =
        render (Obda.Engine.certain_answers engine (parse_query tbox (List.assoc name prepared)))
      in
      Hashtbl.replace oracles key r;
      r
  in
  (* the answers of the first [max_checked] distinct link sets are
     checked, and of every later cycle that reverts to one of them *)
  let max_checked = 4 and scheduled = Hashtbl.create 8 in
  let cycle () =
    let links = next () in
    let checked = Hashtbl.mem scheduled links || Hashtbl.length scheduled < max_checked in
    if checked then Hashtbl.replace scheduled links ();
    let ask name =
      let check =
        if checked then Later (fun lines -> lines = expected links name) else Unchecked
      in
      step Ask (ask_named name) ~check
    in
    { steps =
        step Write (load Wire.K_tbox (base @ links))
        :: step Other (Wire.Classify { session })
        :: List.map ask ask_batch;
      edit = true }
  in
  {
    setup = setup_of d ~tbox:base;
    (* set-up and recovery both see the base TBox: the probe loads it
       back, so the state recovery replays does not depend on where the
       window stopped in the edit sequence *)
    check = (fun () -> (ask_named "persons", expected [] "persons"));
    conns = 1;
    next = serialized cycle;
    probe = [ { steps = [ step Other (load Wire.K_tbox base) ]; edit = false } ];
    rows = rows_of d;
  }

let make workload ~seed ~scale =
  match workload with
  | "point-lookup" -> Some (point_lookup ~seed ~scale)
  | "join-update" -> Some (join_update ~seed ~scale)
  | "ontology-edit" -> Some (ontology_edit ~seed ~scale)
  | _ -> None
