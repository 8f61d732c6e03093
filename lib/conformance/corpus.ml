(** Persistent counterexample corpus.

    Every minimized counterexample the fuzzer (or a one-off
    investigation) produces is saved as a small text file; the test
    suite replays the whole directory on every [dune runtest], so a
    disagreement fixed once can never silently return.

    File format — three sections, [#] comments and blank lines ignored:

    {v  [tbox]
        concept A
        role p
        A [= exists p
        [abox]
        A(ann)
        p(ann, bob)
        [query]
        x <- A(x)  v}

    The [tbox] section is the ASCII DL-Lite syntax (declarations
    included, so the file reparses losslessly).  The [abox] and [query]
    sections are optional and resolve predicate names against the TBox
    signature; arguments may be double-quoted, and a comma inside quotes
    is part of the value. *)

open Dllite

exception Malformed of string

let fail fmt = Format.kasprintf (fun m -> raise (Malformed m)) fmt

(* ------------------------------ saving ------------------------------ *)

let render_tbox tbox =
  let s = Tbox.signature tbox in
  List.map (Printf.sprintf "concept %s") (Signature.concepts s)
  @ List.map (Printf.sprintf "role %s") (Signature.roles s)
  @ List.map (Printf.sprintf "attr %s") (Signature.attributes s)
  @ List.map Syntax.axiom_to_string (Tbox.axioms tbox)

let render_assertion = function
  | Abox.Concept_assert (a, c) -> Printf.sprintf "%s(%s)" a c
  | Abox.Role_assert (p, c1, c2) -> Printf.sprintf "%s(%s, %s)" p c1 c2
  | Abox.Attr_assert (u, c, v) -> Printf.sprintf "%s(%s, \"%s\")" u c v

let to_string (case : Runner.case) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "# conformance counterexample: ";
  Buffer.add_string buf case.Runner.label;
  Buffer.add_string buf "\n[tbox]\n";
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    (render_tbox case.Runner.tbox);
  (match case.Runner.data with
   | None -> ()
   | Some (abox, q) ->
     Buffer.add_string buf "[abox]\n";
     List.iter
       (fun a ->
         Buffer.add_string buf (render_assertion a);
         Buffer.add_char buf '\n')
       (Abox.assertions abox);
     Buffer.add_string buf "[query]\n";
     Buffer.add_string buf
       (Obda.Qparse.query_text ~signature:(Tbox.signature case.Runner.tbox) q);
     Buffer.add_char buf '\n');
  Buffer.contents buf

(** [save ~dir case] writes [case] as [<dir>/<label>.case] (creating
    [dir] if needed) and returns the path. *)
let save ~dir (case : Runner.case) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (case.Runner.label ^ ".case") in
  let oc = open_out path in
  output_string oc (to_string case);
  close_out oc;
  path

(* ------------------------------ loading ----------------------------- *)

let parse_assertion ~signature line =
  try Obda.Qparse.parse_assertion ~signature line
  with Obda.Qparse.Parse_error e -> fail "assertion %s: %s" line e

(** [of_string ~label text] parses the corpus format back into a case.
    @raise Malformed on anything unparseable. *)
let of_string ~label text =
  let section = ref `Preamble in
  let tbox_lines = ref [] in
  let abox_lines = ref [] in
  let query_lines = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun raw ->
         let line = String.trim raw in
         if line = "" || line.[0] = '#' then ()
         else
           match line with
           | "[tbox]" -> section := `Tbox
           | "[abox]" -> section := `Abox
           | "[query]" -> section := `Query
           | _ -> (
             match !section with
             | `Preamble -> fail "content before [tbox] section: %s" line
             | `Tbox -> tbox_lines := line :: !tbox_lines
             | `Abox -> abox_lines := line :: !abox_lines
             | `Query -> query_lines := line :: !query_lines));
  let tbox =
    match Parser.tbox_of_string (String.concat "\n" (List.rev !tbox_lines)) with
    | Ok t -> t
    | Error e -> fail "tbox: %s" e
  in
  let signature = Tbox.signature tbox in
  let data =
    match List.rev !query_lines, List.rev !abox_lines with
    | [], [] -> None
    | [ qline ], abox_lines ->
      let abox = Abox.of_list (List.map (parse_assertion ~signature) abox_lines) in
      let q =
        try Obda.Qparse.parse_query ~signature qline
        with Obda.Qparse.Parse_error e -> fail "query: %s" e
      in
      Some (abox, q)
    | [], _ -> fail "[abox] without a [query] section"
    | _ :: _ :: _, _ -> fail "expected exactly one query line"
  in
  { Runner.label; tbox; data }

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_file path =
  let label = Filename.remove_extension (Filename.basename path) in
  of_string ~label (read_file path)

(** [load_dir dir] — every [*.case] file, sorted by name; an empty or
    missing directory is an empty corpus. *)
let load_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".case")
    |> List.sort compare
    |> List.map (fun f -> load_file (Filename.concat dir f))
