(** Parser for the ASCII concrete syntax of DL-Lite_R TBoxes and ABoxes.

    Grammar (one item per line; [#] starts a comment):

    {v
      decl      ::= "concept" ident | "role" ident | "attr" ident
      axiom     ::= term "[=" rhs
      term      ::= ident | ident "^-" | "exists" roleterm | "delta" "(" ident ")"
      roleterm  ::= ident | ident "^-"
      rhs       ::= ["not"] term | "exists" roleterm "." ident
      assertion ::= ident "(" ident ")" | ident "(" ident "," ident ")"
    v}

    A bare [ident [= ident] line is a concept inclusion unless the
    left-hand ident was previously declared (or used) as a role or an
    attribute.  This mirrors how OWL functional syntax disambiguates via
    entity declarations. *)

exception Parse_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

type token =
  | Ident of string
  | Inverse_marker   (* ^- *)
  | Subsumes         (* [= *)
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Kw_concept
  | Kw_role
  | Kw_attr
  | Kw_exists
  | Kw_not
  | Kw_delta
  | Kw_funct
  | Kw_id

let keyword_of_string = function
  | "concept" -> Some Kw_concept
  | "role" -> Some Kw_role
  | "attr" -> Some Kw_attr
  | "exists" -> Some Kw_exists
  | "not" -> Some Kw_not
  | "delta" -> Some Kw_delta
  | "funct" -> Some Kw_funct
  | "id" -> Some Kw_id
  | _ -> None

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

(** [tokenize_line ~line s] turns one source line into tokens. *)
let tokenize_line ~line s =
  let n = String.length s in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' then i := n
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do incr i done;
      let word = String.sub s start (!i - start) in
      match keyword_of_string word with
      | Some kw -> emit kw
      | None -> emit (Ident word)
    end
    else if c = '^' && !i + 1 < n && s.[!i + 1] = '-' then begin
      emit Inverse_marker;
      i := !i + 2
    end
    else if c = '[' && !i + 1 < n && s.[!i + 1] = '=' then begin
      emit Subsumes;
      i := !i + 2
    end
    else begin
      (match c with
       | '(' -> emit Lparen
       | ')' -> emit Rparen
       | ',' -> emit Comma
       | '.' -> emit Dot
       | _ -> fail line "unexpected character %C" c);
      incr i
    end
  done;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Sort inference context                                              *)
(* ------------------------------------------------------------------ *)

type sort = S_concept | S_role | S_attr

(* The names seen so far, declared or used, are the document's
   signature; a name sits in at most one of its three sets. *)
type context = { mutable signature : Signature.t }

let sort_of ctx name =
  if Signature.mem_concept name ctx.signature then Some S_concept
  else if Signature.mem_role name ctx.signature then Some S_role
  else if Signature.mem_attribute name ctx.signature then Some S_attr
  else None

let declare ctx line name sort =
  match sort_of ctx name with
  | None ->
    ctx.signature <-
      (match sort with
       | S_concept -> Signature.add_concept name ctx.signature
       | S_role -> Signature.add_role name ctx.signature
       | S_attr -> Signature.add_attribute name ctx.signature)
  | Some s when s = sort -> ()
  | Some _ -> fail line "name %s used with two different sorts" name

(* ------------------------------------------------------------------ *)
(* Line parsers                                                        *)
(* ------------------------------------------------------------------ *)

(* A parsed left- or right-hand term before sort resolution. *)
type term =
  | T_name of string                    (* bare ident: concept, role or attr *)
  | T_inverse of string                 (* P^- : necessarily a role *)
  | T_exists of Syntax.role             (* exists Q : a concept *)
  | T_exists_qual of Syntax.role * string  (* exists Q . A : a concept rhs *)
  | T_delta of string                   (* delta(U) : a concept *)

let parse_roleterm line = function
  | Ident p :: Inverse_marker :: rest -> (Syntax.Inverse p, rest)
  | Ident p :: rest -> (Syntax.Direct p, rest)
  | _ -> fail line "expected a role term"

let parse_term line tokens =
  match tokens with
  | Kw_exists :: rest ->
    let q, rest = parse_roleterm line rest in
    (match rest with
     | Dot :: Ident a :: rest' -> (T_exists_qual (q, a), rest')
     | _ -> (T_exists q, rest))
  | Kw_delta :: Lparen :: Ident u :: Rparen :: rest -> (T_delta u, rest)
  | Ident x :: Inverse_marker :: rest -> (T_inverse x, rest)
  | Ident x :: rest -> (T_name x, rest)
  | _ -> fail line "expected a concept, role or attribute term"

(* Resolve a term to a basic concept, registering sorts as we learn them. *)
let to_basic ctx line = function
  | T_name x ->
    declare ctx line x S_concept;
    Syntax.Atomic x
  | T_exists q ->
    declare ctx line (Syntax.role_name q) S_role;
    Syntax.Exists q
  | T_delta u ->
    declare ctx line u S_attr;
    Syntax.Attr_domain u
  | T_inverse _ -> fail line "a role inverse is not a concept"
  | T_exists_qual _ ->
    fail line "qualified existentials may only appear on the right-hand side"

let to_role ctx line = function
  | T_name x ->
    declare ctx line x S_role;
    Syntax.Direct x
  | T_inverse x ->
    declare ctx line x S_role;
    Syntax.Inverse x
  | _ -> fail line "expected a role"

let to_attr ctx line = function
  | T_name x ->
    declare ctx line x S_attr;
    x
  | _ -> fail line "expected an attribute name"

(** Parse one [lhs [= rhs] line given the tokens on each side. *)
let parse_axiom ctx line lhs_tokens rhs_tokens =
  let lhs_term, lhs_rest = parse_term line lhs_tokens in
  if lhs_rest <> [] then fail line "trailing tokens after left-hand side";
  let negated, rhs_tokens =
    match rhs_tokens with
    | Kw_not :: rest -> (true, rest)
    | rest -> (false, rest)
  in
  let rhs_term, rhs_rest = parse_term line rhs_tokens in
  if rhs_rest <> [] then fail line "trailing tokens after right-hand side";
  (* Decide the axiom sort from whichever side is least ambiguous. *)
  let lhs_sort =
    match lhs_term with
    | T_inverse _ -> Some S_role
    | T_exists _ | T_delta _ -> Some S_concept
    | T_exists_qual _ -> fail line "qualified existential on left-hand side"
    | T_name x -> sort_of ctx x
  in
  let rhs_sort =
    match rhs_term with
    | T_inverse _ -> Some S_role
    | T_exists _ | T_delta _ | T_exists_qual _ -> Some S_concept
    | T_name x -> sort_of ctx x
  in
  let sort =
    match lhs_sort, rhs_sort with
    | Some s, None | None, Some s -> s
    | Some s1, Some s2 ->
      (* [role [= exists ...] is ill-sorted; report it rather than guess. *)
      if s1 = s2 then s1 else fail line "inclusion sides have different sorts"
    | None, None -> S_concept
  in
  match sort with
  | S_concept ->
    let b = to_basic ctx line lhs_term in
    let rhs =
      match rhs_term, negated with
      | T_exists_qual (q, a), false ->
        declare ctx line (Syntax.role_name q) S_role;
        declare ctx line a S_concept;
        Syntax.C_exists_qual (q, a)
      | T_exists_qual _, true -> fail line "negated qualified existentials are not in DL-Lite_R"
      | t, false -> Syntax.C_basic (to_basic ctx line t)
      | t, true -> Syntax.C_neg (to_basic ctx line t)
    in
    Syntax.Concept_incl (b, rhs)
  | S_role ->
    let q = to_role ctx line lhs_term in
    let q' = to_role ctx line rhs_term in
    Syntax.Role_incl (q, if negated then Syntax.R_neg q' else Syntax.R_role q')
  | S_attr ->
    let u = to_attr ctx line lhs_term in
    let v = to_attr ctx line rhs_term in
    Syntax.Attr_incl (u, if negated then Syntax.A_neg v else Syntax.A_attr v)

let split_on_subsumes tokens =
  let rec go acc = function
    | [] -> None
    | Subsumes :: rest -> Some (List.rev acc, rest)
    | t :: rest -> go (t :: acc) rest
  in
  go [] tokens

(* Constraint lines: "funct q", "funct attr u", "id B q1 q2 ...". *)
let parse_constraint ctx line tokens =
  match tokens with
  | Kw_funct :: Kw_attr :: Ident u :: [] ->
    declare ctx line u S_attr;
    Constraints.Funct_attr u
  | Kw_funct :: rest ->
    let q, rest = parse_roleterm line rest in
    if rest <> [] then fail line "trailing tokens after funct";
    declare ctx line (Syntax.role_name q) S_role;
    Constraints.Funct_role q
  | Kw_id :: Ident b :: rest ->
    declare ctx line b S_concept;
    let rec roles acc = function
      | [] -> List.rev acc
      | tokens ->
        let q, rest = parse_roleterm line tokens in
        declare ctx line (Syntax.role_name q) S_role;
        roles (q :: acc) rest
    in
    let paths = roles [] rest in
    if paths = [] then fail line "id constraint needs at least one role";
    Constraints.Identification (b, paths)
  | _ -> fail line "malformed constraint"

(** [parse_document source] parses a TBox document that may also contain
    functionality and identification constraint lines. *)
let parse_document source =
  let ctx = { signature = Signature.empty } in
  let axioms = ref [] in
  let constraints = ref [] in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      match tokenize_line ~line raw with
      | [] -> ()
      | [ Kw_concept; Ident a ] -> declare ctx line a S_concept
      | [ Kw_role; Ident p ] -> declare ctx line p S_role
      | [ Kw_attr; Ident u ] -> declare ctx line u S_attr
      | (Kw_funct :: _ | Kw_id :: _) as tokens ->
        constraints := parse_constraint ctx line tokens :: !constraints
      | tokens ->
        (match split_on_subsumes tokens with
         | Some (lhs, rhs) -> axioms := parse_axiom ctx line lhs rhs :: !axioms
         | None -> fail line "expected a declaration or an inclusion"))
    lines;
  (* the signature also holds names that only constraint lines mention,
     so downstream checks see them *)
  ( Tbox.of_axioms ~signature:ctx.signature (List.rev !axioms),
    List.rev !constraints )

(** [parse_tbox source] parses a whole TBox document (constraint lines
    are accepted and dropped; use [parse_document] to keep them). *)
let parse_tbox source = fst (parse_document source)

(** [tbox_of_string_exn s] is [parse_tbox s]; re-exported under a name
    that signals the exception behaviour. *)
let tbox_of_string_exn = parse_tbox

(** [tbox_of_string s] is [Ok (parse_tbox s)] or [Error message]. *)
let tbox_of_string s =
  match parse_tbox s with
  | t -> Ok t
  | exception Parse_error { line; message } ->
    Error (Printf.sprintf "line %d: %s" line message)
