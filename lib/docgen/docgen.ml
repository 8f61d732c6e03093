(** Automated ontology documentation (Section 8: "the alignment between
    ontology and project documentation must be handled in an automated
    way, through tools that are able to extract information from the
    ontology, and to generate at least a preliminary documentation").

    From a TBox (plus optional free-text annotations) the generator
    produces a self-contained document: overview statistics, the concept
    taxonomy as an indented tree, one section per concept (direct
    supers/subs, equivalents, participations in roles and attributes,
    disjointness, unsatisfiability warnings), and role/attribute
    glossaries.  Markdown and HTML back ends share the same document
    model, so the two renderings never drift apart. *)

open Dllite

(* ------------------------------------------------------------------ *)
(* Annotations                                                         *)
(* ------------------------------------------------------------------ *)

(** Free-text annotations keyed by entity name — the "auxiliary
    documentation regarding the design choices" of Section 3. *)
type annotations = (string * string) list

let annotation annotations name = List.assoc_opt name annotations

(* ------------------------------------------------------------------ *)
(* Document model                                                      *)
(* ------------------------------------------------------------------ *)

type inline =
  | Text of string
  | Code of string
  | Link of string  (** link to an entity section *)

type block =
  | Heading of int * string
  | Paragraph of inline list
  | Bullets of inline list list
  | Preformatted of string

type document = {
  title : string;
  blocks : block list;
}

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

(* Role participations of a concept name: role typings that mention it
   as domain or range. *)
let participations tbox name =
  List.filter_map
    (fun ax ->
      match ax with
      | Syntax.Concept_incl (Syntax.Exists q, Syntax.C_basic (Syntax.Atomic a))
        when a = name -> (
        match q with
        | Syntax.Direct p -> Some (Printf.sprintf "domain of role %s" p)
        | Syntax.Inverse p -> Some (Printf.sprintf "range of role %s" p))
      | Syntax.Concept_incl (Syntax.Atomic a, Syntax.C_basic (Syntax.Exists q))
        when a = name ->
        Some
          (Printf.sprintf "mandatory participation in %s%s" (Syntax.role_name q)
             (match q with Syntax.Direct _ -> "" | Syntax.Inverse _ -> " (as target)"))
      | Syntax.Concept_incl (Syntax.Atomic a, Syntax.C_exists_qual (q, b)) when a = name
        ->
        Some
          (Printf.sprintf "each instance has a %s-successor in %s"
             (Syntax.role_name q) b)
      | Syntax.Concept_incl (Syntax.Attr_domain u, Syntax.C_basic (Syntax.Atomic a))
        when a = name -> Some (Printf.sprintf "carrier of attribute %s" u)
      | _ -> None)
    (Tbox.axioms tbox)

let disjoint_with cls signature name =
  let d = Quonto.Deductive.of_classification cls in
  List.filter
    (fun b ->
      b <> name
      && Quonto.Deductive.entails_disjoint d
           (Syntax.E_concept (Syntax.Atomic name))
           (Syntax.E_concept (Syntax.Atomic b)))
    (Signature.concepts signature)

(** [generate ?annotations ?title tbox] builds the document model. *)
let generate ?(annotations = []) ?(title = "Ontology documentation") tbox =
  let cls = Quonto.Classify.classify tbox in
  let taxonomy = Quonto.Taxonomy.build cls Quonto.Classify.Concepts in
  let signature = Tbox.signature tbox in
  let blocks = ref [] in
  let push b = blocks := b :: !blocks in
  (* overview *)
  push (Heading (1, title));
  push
    (Paragraph
       [
         Text
           (Printf.sprintf
              "%d axioms over %d concepts, %d roles and %d attributes; taxonomy \
               depth %d; %s."
              (Tbox.axiom_count tbox)
              (Signature.concept_count signature)
              (Signature.role_count signature)
              (Signature.attribute_count signature)
              (Quonto.Taxonomy.depth taxonomy)
              (if Quonto.Unsat.coherent (Quonto.Classify.unsat cls) then
                 "the ontology is coherent"
               else "WARNING: the ontology has unsatisfiable predicates"));
       ]);
  (* taxonomy tree *)
  push (Heading (2, "Concept taxonomy"));
  push (Preformatted (Format.asprintf "%a" Quonto.Taxonomy.pp taxonomy));
  (* per-concept sections *)
  push (Heading (2, "Concepts"));
  List.iter
    (fun name ->
      push (Heading (3, name));
      (match annotation annotations name with
       | Some text -> push (Paragraph [ Text text ])
       | None -> ());
      if List.mem name taxonomy.Quonto.Taxonomy.unsatisfiable then
        push
          (Paragraph
             [
               Text "WARNING: this concept is unsatisfiable — review the axioms \
                     involving it.";
             ]);
      let bullet_of_names label names =
        if names = [] then None
        else
          Some
            (Text (label ^ ": ")
             :: List.concat_map (fun n -> [ Link n; Text " " ]) names)
      in
      let bullets =
        List.filter_map Fun.id
          [
            bullet_of_names "direct superconcepts"
              (Quonto.Taxonomy.direct_supers taxonomy name);
            bullet_of_names "direct subconcepts"
              (Quonto.Taxonomy.direct_subs taxonomy name);
            bullet_of_names "equivalent to" (Quonto.Taxonomy.equivalents taxonomy name);
            bullet_of_names "disjoint with" (disjoint_with cls signature name);
          ]
        @ List.map (fun p -> [ Text p ]) (participations tbox name)
      in
      if bullets <> [] then push (Bullets bullets))
    (Signature.concepts signature);
  (* role glossary *)
  if Signature.roles signature <> [] then begin
    push (Heading (2, "Roles"));
    push
      (Bullets
         (List.map
            (fun p ->
              let domain =
                List.filter_map
                  (function
                    | Syntax.Concept_incl
                        (Syntax.Exists (Syntax.Direct p'), Syntax.C_basic (Syntax.Atomic a))
                      when p' = p -> Some a
                    | _ -> None)
                  (Tbox.axioms tbox)
              in
              let range =
                List.filter_map
                  (function
                    | Syntax.Concept_incl
                        (Syntax.Exists (Syntax.Inverse p'), Syntax.C_basic (Syntax.Atomic a))
                      when p' = p -> Some a
                    | _ -> None)
                  (Tbox.axioms tbox)
              in
              let describe label = function
                | [] -> label ^ " unconstrained"
                | xs -> label ^ " " ^ String.concat ", " xs
              in
              [
                Code p;
                Text
                  (Printf.sprintf " — %s; %s%s"
                     (describe "domain" domain) (describe "range" range)
                     (match annotation annotations p with
                      | Some text -> ". " ^ text
                      | None -> ""));
              ])
            (Signature.roles signature)))
  end;
  (* attribute glossary *)
  if Signature.attributes signature <> [] then begin
    push (Heading (2, "Attributes"));
    push
      (Bullets
         (List.map
            (fun u ->
              let carriers =
                List.filter_map
                  (function
                    | Syntax.Concept_incl
                        (Syntax.Attr_domain u', Syntax.C_basic (Syntax.Atomic a))
                      when u' = u -> Some a
                    | _ -> None)
                  (Tbox.axioms tbox)
              in
              [
                Code u;
                Text
                  (Printf.sprintf " — attribute of %s%s"
                     (match carriers with
                      | [] -> "(unconstrained)"
                      | xs -> String.concat ", " xs)
                     (match annotation annotations u with
                      | Some text -> ". " ^ text
                      | None -> ""));
              ])
            (Signature.attributes signature)))
  end;
  { title; blocks = List.rev !blocks }

(* ------------------------------------------------------------------ *)
(* Markdown back end                                                   *)
(* ------------------------------------------------------------------ *)

let anchor name =
  String.map
    (fun c -> if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c else '-')
    (String.lowercase_ascii name)

let markdown_inline = function
  | Text s -> s
  | Code s -> "`" ^ s ^ "`"
  | Link s -> Printf.sprintf "[%s](#%s)" s (anchor s)

(** [to_markdown doc] renders the document as Markdown. *)
let to_markdown doc =
  let buf = Buffer.create 4096 in
  List.iter
    (fun block ->
      (match block with
       | Heading (level, text) ->
         Buffer.add_string buf (String.make level '#' ^ " " ^ text)
       | Paragraph inlines ->
         List.iter (fun i -> Buffer.add_string buf (markdown_inline i)) inlines
       | Bullets items ->
         List.iter
           (fun inlines ->
             Buffer.add_string buf "- ";
             List.iter (fun i -> Buffer.add_string buf (markdown_inline i)) inlines;
             Buffer.add_char buf '\n')
           items
       | Preformatted text ->
         Buffer.add_string buf "```\n";
         Buffer.add_string buf text;
         if text <> "" && text.[String.length text - 1] <> '\n' then
           Buffer.add_char buf '\n';
         Buffer.add_string buf "```");
      Buffer.add_string buf "\n\n")
    doc.blocks;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* HTML back end                                                       *)
(* ------------------------------------------------------------------ *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let html_inline = function
  | Text s -> html_escape s
  | Code s -> "<code>" ^ html_escape s ^ "</code>"
  | Link s -> Printf.sprintf "<a href=\"#%s\">%s</a>" (anchor s) (html_escape s)

(** [to_html doc] renders the document as a standalone HTML page. *)
let to_html doc =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>%s</title>\n\
        <style>body{font-family:sans-serif;max-width:60em;margin:2em auto}\n\
        pre{background:#f6f6f6;padding:1em;overflow-x:auto}\n\
        code{background:#f0f0f0}</style></head><body>\n"
       (html_escape doc.title));
  List.iter
    (fun block ->
      match block with
      | Heading (level, text) ->
        Buffer.add_string buf
          (Printf.sprintf "<h%d id=\"%s\">%s</h%d>\n" level (anchor text)
             (html_escape text) level)
      | Paragraph inlines ->
        Buffer.add_string buf "<p>";
        List.iter (fun i -> Buffer.add_string buf (html_inline i)) inlines;
        Buffer.add_string buf "</p>\n"
      | Bullets items ->
        Buffer.add_string buf "<ul>\n";
        List.iter
          (fun inlines ->
            Buffer.add_string buf "<li>";
            List.iter (fun i -> Buffer.add_string buf (html_inline i)) inlines;
            Buffer.add_string buf "</li>\n")
          items;
        Buffer.add_string buf "</ul>\n"
      | Preformatted text ->
        Buffer.add_string buf ("<pre>" ^ html_escape text ^ "</pre>\n"))
    doc.blocks;
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf
