(** Text syntax for queries and mapping specifications.

    Queries:   [x, y <- worksFor(x, y), Employee(x), dept(x, "R&D")]
    Mappings:  one per line, ontology head on the left:
               [map Employee(id) <- t_emp(id, n, co)]

    Identifiers are variables; double-quoted tokens are constants.
    Ontology predicate names are sort-tagged against the TBox signature
    ([c$]/[r$]/[a$], see {!Vabox}); unknown predicate names are treated
    as database relations. *)

open Dllite

exception Parse_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Parse_error m)) fmt

(* --- the one PRED(args) splitter --------------------------------- *)

(* The splitter works on a span [text.[a..b-1]] of a larger text, so a
   facts payload is parsed in place: one pass, and one [String.sub] per
   predicate and per argument. *)

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\n' || c = '\012'

(* the first index of [c] in [text.[i..b-1]], or [-1] *)
let rec index_in text c i b =
  if i >= b then -1 else if text.[i] = c then i else index_in text c (i + 1) b

(* [skip_blanks] / [trim_end]: the span [text.[a..b-1]] without its
   leading / trailing blanks *)
let rec skip_blanks text a b =
  if a < b && is_space text.[a] then skip_blanks text (a + 1) b else a

let rec trim_end text a b =
  if b > a && is_space text.[b - 1] then trim_end text a (b - 1) else b

(* one argument [text.[a..b-1]], trimmed, as [arg ~quoted v]: [v] with
   its double quotes stripped, [quoted] whether it had them *)
let field ~arg text a b =
  let a = skip_blanks text a b in
  let b = trim_end text a b in
  if a = b then fail "empty term"
  else if text.[a] <> '"' then arg ~quoted:false (String.sub text a (b - a))
  else if b - a >= 2 && text.[b - 1] = '"' then
    arg ~quoted:true (String.sub text (a + 1) (b - a - 2))
  else fail "unterminated constant %s" (String.sub text a (b - a))

(* the arguments in [text.[from..stop-1]], split on the commas outside
   double quotes *)
let rec fields ~arg text stop from j quoted =
  if j = stop then [ field ~arg text from j ]
  else
    match text.[j] with
    | '"' -> fields ~arg text stop from (j + 1) (not quoted)
    | ',' when not quoted ->
      let f = field ~arg text from j in
      f :: fields ~arg text stop (j + 1) (j + 1) quoted
    | _ -> fields ~arg text stop from (j + 1) quoted

(* [split_span ~arg text a b] is [Some (pred, args)] when [text.[a..b-1]]
   reads [PRED(a, "b, c")], [None] when it is not of that shape.  Commas
   inside double quotes do not split; [PRED()] has no arguments.
   @raise Parse_error on an empty or unterminated argument. *)
let split_span ~arg text a b =
  let a = skip_blanks text a b in
  let b = trim_end text a b in
  let i = index_in text '(' a b in
  if i < 0 || text.[b - 1] <> ')' then None
  else
    let stop = b - 1 in
    let args =
      if skip_blanks text (i + 1) stop = stop then []
      else fields ~arg text stop (i + 1) (i + 1) false
    in
    Some (String.sub text a (trim_end text a i - a), args)

(* query and mapping atoms: quoted arguments are constants, bare ones
   variables *)
let term ~quoted v = if quoted then Cq.Const v else Cq.Var v

(* ground facts and assertions: every argument is a constant *)
let value ~quoted:_ v = v

(* split "p(a, b), q(c)" into atom chunks, respecting parentheses and
   quotes *)
let split_atoms body =
  let chunks = ref [] in
  let depth = ref 0 and quoted = ref false and from = ref 0 in
  String.iteri
    (fun j c ->
      match c with
      | '"' -> quoted := not !quoted
      | '(' when not !quoted -> incr depth
      | ')' when not !quoted -> decr depth
      | ',' when !depth = 0 && not !quoted ->
        chunks := String.sub body !from (j - !from) :: !chunks;
        from := j + 1
      | _ -> ())
    body;
  let last = String.sub body !from (String.length body - !from) in
  if String.trim last <> "" then chunks := last :: !chunks;
  List.rev_map String.trim !chunks

let parse_atom ~signature chunk =
  match split_span ~arg:term chunk 0 (String.length chunk) with
  | Some (pred, args) -> Cq.atom (Vabox.pred_of_name signature pred) args
  | None -> fail "malformed atom: %s" chunk

let split_arrow text =
  (* find the first "<-" at depth 0 *)
  let n = String.length text in
  let rec go i depth =
    if i + 1 >= n then None
    else
      match text.[i] with
      | '(' -> go (i + 1) (depth + 1)
      | ')' -> go (i + 1) (depth - 1)
      | '<' when depth = 0 && text.[i + 1] = '-' ->
        Some (String.sub text 0 i, String.sub text (i + 2) (n - i - 2))
      | _ -> go (i + 1) depth
  in
  go 0 0

(** [parse_query ~signature text] parses [vars <- atoms].
    @raise Parse_error on malformed input. *)
let parse_query ~signature text =
  match split_arrow text with
  | None -> fail "expected ANSWER_VARS <- ATOMS"
  | Some (head, body) ->
    let answer_vars =
      String.split_on_char ',' head |> List.map String.trim
      |> List.filter (fun v -> v <> "")
    in
    let atoms = List.map (parse_atom ~signature) (split_atoms body) in
    (try Cq.make answer_vars atoms
     with Invalid_argument m -> fail "%s" m)

(** [parse_mappings ~signature text] parses a mapping file: one
    [map HEAD <- ATOMS] line per mapping ([#] comments, blank lines
    skipped).  Head predicates must be in the ontology signature. *)
let parse_mappings ~signature text =
  let parse_line line_no raw =
    let line = String.trim raw in
    if line = "" || line.[0] = '#' then None
    else if String.length line > 4 && String.sub line 0 4 = "map " then begin
      let rest = String.sub line 4 (String.length line - 4) in
      match split_arrow rest with
      | None -> fail "line %d: expected map HEAD <- ATOMS" line_no
      | Some (head_text, body) ->
        let head_atom = parse_atom ~signature (String.trim head_text) in
        let body_atoms = List.map (parse_atom ~signature) (split_atoms body) in
        let head_vars =
          List.filter_map
            (function Cq.Var v -> Some v | Cq.Const _ -> None)
            head_atom.Cq.args
          |> List.sort_uniq compare
        in
        let source =
          try Cq.make head_vars body_atoms
          with Invalid_argument m -> fail "line %d: %s" line_no m
        in
        let target =
          match Vabox.split_pred head_atom.Cq.pred, head_atom.Cq.args with
          | Some (`Concept, a), [ t ] -> Mapping.Concept_head (a, t)
          | Some (`Role, p), [ t1; t2 ] -> Mapping.Role_head (p, t1, t2)
          | Some (`Attr, u), [ t1; t2 ] -> Mapping.Attr_head (u, t1, t2)
          | _ ->
            fail "line %d: head %s is not an ontology predicate of the right arity"
              line_no head_atom.Cq.pred
        in
        Some (Mapping.make ~source ~target)
    end
    else fail "line %d: expected a map line" line_no
  in
  String.split_on_char '\n' text
  |> List.mapi (fun i raw -> parse_line (i + 1) raw)
  |> List.filter_map Fun.id

(* [map_lines f text] is [f text a b] for each line [text.[a..b-1]]
   (trimmed) of [text] that is neither blank nor a [#] comment, in
   order: one pass over [text], no copy of its lines.  A [Parse_error]
   from [f] is prefixed with the line number, counted from 1. *)
let map_lines f text =
  let n = String.length text in
  let[@tail_mod_cons] rec go line_no start =
    if start > n then []
    else
      let eol = match index_in text '\n' start n with -1 -> n | e -> e in
      let a = skip_blanks text start eol in
      let b = trim_end text a eol in
      if a = b || text.[a] = '#' then go (line_no + 1) (eol + 1)
      else
        let x = try f text a b with Parse_error m -> fail "line %d: %s" line_no m in
        x :: go (line_no + 1) (eol + 1)
  in
  go 1 0

(** [parse_facts text] parses ground facts, one per line:
    [rel(a, "b, c")] (bare arguments are constants here; [#] comments
    and blank lines skipped).  Pure: raises [Parse_error] on the first
    malformed line without any side effect, so callers can load the
    returned rows atomically — all or nothing. *)
let parse_facts text =
  map_lines
    (fun text a b ->
      match split_span ~arg:value text a b with
      | Some row -> row
      | None -> fail "expected rel(arg, ...)")
    text

(* the assertion [text.[a..b-1]] *)
let assertion ~signature text a b =
  match split_span ~arg:value text a b with
  | None -> fail "expected PRED(args)"
  | Some (name, args) -> (
    match args with
    | [ c ] when Signature.mem_concept name signature ->
      Abox.Concept_assert (name, c)
    | [ c1; c2 ] when Signature.mem_role name signature ->
      Abox.Role_assert (name, c1, c2)
    | [ c; v ] when Signature.mem_attribute name signature ->
      Abox.Attr_assert (name, c, v)
    | _ -> fail "%s is not a signature predicate of this arity" name)

(** [parse_assertion ~signature line] parses one ABox assertion
    [PRED(args)] whose predicate is a concept (one argument), role or
    attribute (two) of [signature].  Arguments are constants, quoted or
    bare.  @raise Parse_error otherwise. *)
let parse_assertion ~signature line =
  assertion ~signature line 0 (String.length line)

(** [parse_abox ~signature text] parses ABox assertions, one per line
    ([#] comments and blank lines skipped); errors carry the line
    number. *)
let parse_abox ~signature text = map_lines (assertion ~signature) text

(** [load_facts db text] loads [parse_facts text] into [db]; the parse
    completes before the first insert, so a [Parse_error] leaves [db]
    untouched. *)
let load_facts db text =
  List.iter (fun (rel, row) -> Database.insert db rel row) (parse_facts text)

(* --- rendering: the text the parsers above read back --------------- *)

let quote v = "\"" ^ v ^ "\""

(** [fact_line rel row] — a [parse_facts] line; arguments are always
    quoted, so values that happen to look like syntax round-trip. *)
let fact_line rel row =
  Printf.sprintf "%s(%s)" rel (String.concat ", " (List.map quote row))

let term_text = function Cq.Var v -> v | Cq.Const c -> quote c

(** [atom_text ~signature a] — the text [parse_atom ~signature] reads
    back as [a] (see {!Vabox.name_of_pred}). *)
let atom_text ~signature { Cq.pred; args } =
  Printf.sprintf "%s(%s)"
    (Vabox.name_of_pred signature pred)
    (String.concat ", " (List.map term_text args))

(** [query_text ~signature q] — the text [parse_query ~signature] reads
    back as [q]. *)
let query_text ~signature q =
  String.concat ", " q.Cq.answer_vars
  ^ " <- "
  ^ String.concat ", " (List.map (atom_text ~signature) q.Cq.body)
