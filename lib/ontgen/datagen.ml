(** Relational data generator for OBDA-scale experiments.

    The paper's motivation is extensional: "it is common ... to deal
    with huge quantities of data, and in these cases the need for
    efficient reasoning is paramount" (Section 4).  This module
    fabricates a university-style OBDA instance — ontology, autonomous
    relational sources, GAV mappings — at any data scale, so the bench
    harness can sweep certain-answer evaluation against growing data
    under a fixed rewriting. *)

open Dllite
module Cq = Obda.Cq

(** Everything needed to assemble an [Obda.Engine.t]. *)
type instance = {
  tbox : Tbox.t;
  mappings : Obda.Mapping.t;
  database : Obda.Database.t;
  persons : int;
  courses : int;
}

let university_tbox =
  Parser.tbox_of_string_exn
    {|
      role teaches
      role attends
      role assists

      Professor [= Faculty
      Lecturer [= Faculty
      Faculty [= Staff
      TA [= Staff
      TA [= Student
      Student [= Person
      Staff [= Person

      exists teaches [= Faculty
      exists teaches^- [= Course
      Professor [= exists teaches
      exists attends [= Student
      exists attends^- [= Course
      assists [= attends
      exists assists [= TA
    |}

let v x = Cq.Var x

let university_mappings =
  [
    (* staff roster with a role column *)
    Obda.Mapping.make
      ~source:
        (Cq.make [ "id" ]
           [ Cq.atom "t_staff" [ v "id"; v "n"; Cq.Const "prof" ] ])
      ~target:(Obda.Mapping.Concept_head ("Professor", v "id"));
    Obda.Mapping.make
      ~source:
        (Cq.make [ "id" ]
           [ Cq.atom "t_staff" [ v "id"; v "n"; Cq.Const "lect" ] ])
      ~target:(Obda.Mapping.Concept_head ("Lecturer", v "id"));
    Obda.Mapping.make
      ~source:(Cq.make [ "s" ] [ Cq.atom "t_enroll" [ v "s"; v "c" ] ])
      ~target:(Obda.Mapping.Concept_head ("Student", v "s"));
    Obda.Mapping.make
      ~source:(Cq.make [ "id"; "c" ] [ Cq.atom "t_teach" [ v "id"; v "c" ] ])
      ~target:(Obda.Mapping.Role_head ("teaches", v "id", v "c"));
    Obda.Mapping.make
      ~source:(Cq.make [ "s"; "c" ] [ Cq.atom "t_enroll" [ v "s"; v "c" ] ])
      ~target:(Obda.Mapping.Role_head ("attends", v "s", v "c"));
    Obda.Mapping.make
      ~source:(Cq.make [ "s"; "c" ] [ Cq.atom "t_assist" [ v "s"; v "c" ] ])
      ~target:(Obda.Mapping.Role_head ("assists", v "s", v "c"));
  ]

(** [generate ?seed ~persons ~courses ()] — a deterministic instance:
    1/10 of persons are staff (60% professors), everyone else a student
    enrolled in ~3 courses; staff teach ~2 courses; 5% of students
    assist one.  Source-tuple volume is ~3.3 per person. *)
let generate ?(seed = 0x5EED) ~persons ~courses () =
  let rng = Rng.create seed in
  let db = Obda.Database.create () in
  let course i = Printf.sprintf "c%d" i in
  let person i = Printf.sprintf "p%d" i in
  let staff_cut = max 1 (persons / 10) in
  for i = 0 to staff_cut - 1 do
    let role = if Rng.bool rng 0.6 then "prof" else "lect" in
    Obda.Database.insert db "t_staff"
      [ person i; Printf.sprintf "name%d" i; role ];
    (* each staff member teaches ~2 courses *)
    for _ = 1 to 2 do
      Obda.Database.insert db "t_teach" [ person i; course (Rng.int rng courses) ]
    done
  done;
  for i = staff_cut to persons - 1 do
    for _ = 1 to 3 do
      Obda.Database.insert db "t_enroll" [ person i; course (Rng.int rng courses) ]
    done;
    if Rng.bool rng 0.05 then
      Obda.Database.insert db "t_assist" [ person i; course (Rng.int rng courses) ]
  done;
  {
    tbox = university_tbox;
    mappings = university_mappings;
    database = db;
    persons;
    courses;
  }

(** [engine instance] assembles the OBDA system. *)
let engine instance =
  Obda.Engine.create ~tbox:instance.tbox ~mappings:instance.mappings
    ~database:instance.database ()

(** Benchmark queries of increasing join depth over the instance. *)
let queries =
  [
    ( "persons",
      Cq.make [ "x" ] [ Cq.atom (Obda.Vabox.concept_pred "Person") [ v "x" ] ] );
    ( "faculty",
      Cq.make [ "x" ] [ Cq.atom (Obda.Vabox.concept_pred "Faculty") [ v "x" ] ] );
    ( "taught-attended",
      Cq.make [ "t"; "s" ]
        [
          Cq.atom (Obda.Vabox.role_pred "teaches") [ v "t"; v "c" ];
          Cq.atom (Obda.Vabox.role_pred "attends") [ v "s"; v "c" ];
        ] );
    ( "ta-of-professor",
      Cq.make [ "s" ]
        [
          Cq.atom (Obda.Vabox.role_pred "assists") [ v "s"; v "c" ];
          Cq.atom (Obda.Vabox.role_pred "teaches") [ v "t"; v "c" ];
          Cq.atom (Obda.Vabox.concept_pred "Professor") [ v "t" ];
        ] );
  ]
