(* Seeded workload inputs.  Everything the benchmark sends — facts,
   TBox texts, query streams — is a pure function of the workload seed
   and the scale, built from Ontgen.Datagen and Ontgen.Generator.

   The instances and the Galen module come from one fixed generator
   seed; the workload seed drives the request streams (lookup keys, new
   rows, edit sequence).  Join sizes, tuple counts and the module's
   hierarchy vary by ±15% between generator seeds, and every latency of
   a run moves with them: a spread across workload seeds should measure
   the program and the host, not a different instance. *)

module Datagen = Ontgen.Datagen
module Rng = Ontgen.Rng
module Service = Server.Service

type scale = {
  persons : int;  (** university instance of point-lookup and join-update *)
  onto_persons : int;  (** the small instance under ontology-edit *)
  module_scale : float;  (** Galen-profile module size, as in [bench scaling] *)
}

(* ~3.3 source tuples per person: 30k persons is ~100k tuples *)
let full = { persons = 30_000; onto_persons = 1_000; module_scale = 0.03 }
let tiny = { persons = 120; onto_persons = 60; module_scale = 0.01 }

let session = "s"

let instance_seed = 0x6A1E

(* ----------------------------- the instance -------------------------- *)

type data = {
  instance : Datagen.instance;
  fact_lines : string list;  (** every source tuple, as FACTS payload lines *)
}

let university ~persons =
  let instance =
    Datagen.generate ~seed:instance_seed ~persons ~courses:(max 10 (persons / 10)) ()
  in
  let db = instance.Datagen.database in
  let fact_lines =
    List.concat_map
      (fun rel -> List.map (Service.fact_line rel) (Obda.Database.rows db rel))
      (Obda.Database.relation_names db)
  in
  { instance; fact_lines }

let tbox_lines tbox = Service.tbox_payload tbox

let mappings_lines (i : Datagen.instance) =
  Service.mappings_payload (Dllite.Tbox.signature i.Datagen.tbox)
    i.Datagen.mappings

(* the four Datagen queries, as prepared-query text *)
let prepared =
  [
    ("persons", "x <- Person(x)");
    ("faculty", "x <- Faculty(x)");
    ("taught-attended", "t, s <- teaches(t, c), attends(s, c)");
    ("ta-of-professor", "s <- assists(s, c), teaches(t, c), Professor(t)");
  ]

(* the set-up a workload sends: TBox, mappings, the facts as BULK
   chunks of 1000, the prepared queries *)
let load_requests ~tbox ~mappings ~facts =
  let module Wire = Server.Wire in
  let rec chunks acc = function
    | [] -> List.rev acc
    | lines ->
      let rec take k acc = function
        | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let chunk, rest = take 1000 [] lines in
      chunks (Wire.Bulk_chunk { session; payload = chunk } :: acc) rest
  in
  [ Wire.Load { session; kind = Wire.K_tbox; payload = tbox };
    Wire.Load { session; kind = Wire.K_mappings; payload = mappings } ]
  @ chunks [] facts
  @ [ Wire.Bulk_end { session } ]
  @ List.map (fun (name, query) -> Wire.Prepare { session; name; query }) prepared

(* -------------------------- point lookups ---------------------------- *)

(* Zipf(s) over person ranks, mapped through a seeded permutation so the
   hot keys differ per seed while the distribution does not.  s = 1.3
   puts about 3/4 of asks on the 256-entry answer cache. *)
type zipf = { cdf : float array; perm : int array }

let zipf ~rng ~n ~s =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  { cdf; perm }

let zipf_draw z rng =
  let n = Array.length z.cdf in
  let u = Rng.float rng *. z.cdf.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  z.perm.(!lo)

type lookup = { role : string; person : string }

let lookup_text l = Printf.sprintf "c <- %s(\"%s\", c)" l.role l.person

(* expected answers straight from the generated rows: attends is
   enrollments ∪ assists (assists ⊑ attends), teaches is t_teach *)
let lookup_oracle (d : data) =
  let tbl = Hashtbl.create 4096 in
  let add role rel =
    List.iter
      (function
        | [ p; c ] ->
          let key = (role, p) in
          Hashtbl.replace tbl key
            (c :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
        | _ -> ())
      (Obda.Database.rows d.instance.Datagen.database rel)
  in
  add "attends" "t_enroll";
  add "attends" "t_assist";
  add "teaches" "t_teach";
  fun l ->
    List.sort_uniq compare
      (Option.value ~default:[] (Hashtbl.find_opt tbl (l.role, l.person)))

let lookup_stream ~seed ~persons =
  let rng = Rng.create (seed * 7919 + 17) in
  let z = zipf ~rng ~n:persons ~s:1.3 in
  fun () ->
    let p = zipf_draw z rng in
    {
      role = (if Rng.bool rng 0.5 then "attends" else "teaches");
      person = Printf.sprintf "p%d" p;
    }

(* ---------------------------- join updates --------------------------- *)

(* one new source row per round: an enrollment or an assistantship of an
   existing person in an existing course, under a fresh person id so the
   row is new and both prepared joins see it *)
let join_rounds ~seed ~persons =
  let rng = Rng.create (seed * 104729 + 3) in
  let courses = max 10 (persons / 10) in
  let i = ref 0 in
  fun () ->
    incr i;
    let rel = if Rng.bool rng 0.5 then "t_enroll" else "t_assist" in
    let row =
      [ Printf.sprintf "n%d" !i; Printf.sprintf "c%d" (Rng.int rng courses) ]
    in
    (* ta-of-professor three times for every taught-attended, in a fixed
       order: a random draw would make the share of the expensive join
       in a window — and with it the throughput — vary by ±20% *)
    let query = if !i mod 4 = 0 then "taught-attended" else "ta-of-professor" in
    (rel, row, query)

(* --------------------------- ontology edits -------------------------- *)

let module_prefix = "g"

let galen_module ~module_scale =
  Ontgen.Generator.generate ~seed:instance_seed ~prefix:module_prefix
    (Ontgen.Generator.scale module_scale Ontgen.Profiles.galen)

let concept i = Printf.sprintf "%sC%d" module_prefix i

(* Link sources: module concepts with 5 to 24 subsumees.  The module's
   hierarchy is bimodal — about 40% of its concepts sit under a cycle
   that reaches most of the module, and linking one of those turns a
   one-atom query into a ~1850-disjunct rewriting taking a second — so
   sources come from the low band, where a link adds tens of disjuncts
   and persons stays cheaper than the largest join. *)
let link_sources module_tbox ~concepts =
  let cls = Quonto.Classify.classify module_tbox in
  List.filter
    (fun i ->
      let n =
        List.length
          (Quonto.Classify.subsumees cls
             (Dllite.Syntax.E_concept (Dllite.Syntax.Atomic (concept i))))
      in
      n >= 5 && n < 25)
    (List.init concepts Fun.id)
  |> function
  | [] -> [| 0 |]  (* a module too small to have the band *)
  | band -> Array.of_list band

let link_targets = [| "Person"; "Student"; "Staff"; "Faculty"; "Professor" |]

(* Each cycle either adds an inclusion [gC<i> [= <university concept>]
   or retracts one of the active ones; every third cycle reverts to an
   earlier link set, so the fingerprint-keyed caches re-hit.  At most
   [max_links] links are active, so the rewriting cost does not drift
   upward over a run. *)
let max_links = 3

let edit_stream ~seed ~sources =
  let rng = Rng.create (seed * 6271 + 11) in
  let active = ref [] and history = ref [ [] ] and cycle = ref 0 in
  fun () ->
    incr cycle;
    let links =
      if !cycle mod 3 = 0 && List.length !history > 1 then
        List.nth !history (Rng.int rng (List.length !history))
      else if !active <> [] && (List.length !active >= max_links || Rng.bool rng 0.4)
      then
        let drop = List.nth !active (Rng.int rng (List.length !active)) in
        List.filter (fun l -> l <> drop) !active
      else
        let link =
          Printf.sprintf "%s [= %s"
            (concept sources.(Rng.int rng (Array.length sources)))
            link_targets.(Rng.int rng (Array.length link_targets))
        in
        List.sort_uniq compare (link :: !active)
    in
    active := links;
    if not (List.mem links !history) then history := links :: !history;
    links

(** The ontology-edit inputs: the instance, the base TBox text and the
    edit stream. *)
let ontology ~seed ~(scale : scale) =
  let profile = Ontgen.Generator.scale scale.module_scale Ontgen.Profiles.galen in
  let m = galen_module ~module_scale:scale.module_scale in
  let base = tbox_lines (Dllite.Tbox.union Datagen.university_tbox m) in
  ( university ~persons:scale.onto_persons,
    base,
    edit_stream ~seed ~sources:(link_sources m ~concepts:profile.Ontgen.Generator.concepts) )
