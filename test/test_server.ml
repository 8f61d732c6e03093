(* The serving layer: LRU mechanics, TBox fingerprints, the wire codec,
   the Service's cache behaviour — and the soundness property that
   justifies caching at all: under random interleavings of TBox swaps,
   data loads and repeated queries, a caching Service answers
   byte-identically to a fresh, cache-less Engine, at every LRU
   capacity including the degenerate 0 and 1. *)

open Dllite
module Lru = Server.Lru
module Wire = Server.Wire
module Service = Server.Service

(* ------------------------------- LRU -------------------------------- *)

(* counter assertions read the cache's [Obs] registry — the counters'
   only home since the PR-4 [Lru.stats] snapshot shim was retired *)
let lru_counted r name =
  List.find_map
    (fun { Obs.name = n; labels; value } ->
      if n = name && labels = [ ("cache", "test") ] then Some value else None)
    (Obs.Registry.samples r)
  |> Option.value ~default:0.0 |> int_of_float

let lru_with_metrics ~capacity =
  let r = Obs.Registry.create () in
  (Lru.create ~metrics:(r, [ ("cache", "test") ]) ~capacity (), r)

let test_lru_basic () =
  let c, r = lru_with_metrics ~capacity:2 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Alcotest.(check (option int)) "a cached" (Some 1) (Lru.find c "a");
  (* a was promoted by the find, so inserting c evicts b *)
  Lru.put c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c cached" (Some 3) (Lru.find c "c");
  Alcotest.(check (list string)) "MRU order" [ "c"; "a" ] (Lru.keys c);
  Alcotest.(check int) "hits" 3 (lru_counted r "obda_cache_hits_total");
  Alcotest.(check int) "misses" 1 (lru_counted r "obda_cache_misses_total");
  Alcotest.(check int) "evictions" 1 (lru_counted r "obda_cache_evictions_total");
  Alcotest.(check int) "size" 2 (lru_counted r "obda_cache_size")

let test_lru_capacity_zero () =
  let c, r = lru_with_metrics ~capacity:0 in
  Lru.put c "a" 1;
  Alcotest.(check (option int)) "stores nothing" None (Lru.find c "a");
  Alcotest.(check int) "size 0" 0 (Lru.length c);
  Alcotest.(check int) "put counted" 1 (lru_counted r "obda_cache_insertions_total");
  Alcotest.(check int) "self-evicted" 1 (lru_counted r "obda_cache_evictions_total")

let test_lru_capacity_one () =
  let c, r = lru_with_metrics ~capacity:1 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Alcotest.(check (option int)) "a evicted" None (Lru.find c "a");
  Alcotest.(check (option int)) "b is the resident" (Some 2) (Lru.find c "b");
  (* refreshing the resident must not evict it *)
  Lru.put c "b" 20;
  Alcotest.(check (option int)) "refreshed in place" (Some 20) (Lru.find c "b");
  Alcotest.(check int) "exactly one eviction" 1
    (lru_counted r "obda_cache_evictions_total")

let test_lru_remove_and_clear () =
  let c, r = lru_with_metrics ~capacity:4 in
  List.iter (fun (k, v) -> Lru.put c k v) [ ("a", 1); ("b", 2); ("c", 3) ];
  Lru.remove c "b";
  Alcotest.(check (option int)) "removed" None (Lru.find c "b");
  Alcotest.(check int) "removal is not an eviction" 0
    (lru_counted r "obda_cache_evictions_total");
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check (list string)) "empty list" [] (Lru.keys c);
  (* the list structure must still be sound after a clear *)
  Lru.put c "z" 26;
  Alcotest.(check (option int)) "usable after clear" (Some 26) (Lru.find c "z")

let test_lru_negative_capacity () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: negative capacity") (fun () ->
      ignore (Lru.create ~capacity:(-1) ()))

(* ---------------------------- fingerprints --------------------------- *)

let tbox_of_string s = Parser.tbox_of_string_exn s

let test_fingerprint_stable () =
  let t1 = tbox_of_string "A [= B\nB [= C\nrole p\nexists p [= A" in
  let t2 = tbox_of_string "exists p [= A\nB [= C\nrole p\nA [= B" in
  Alcotest.(check string) "axiom order is canonicalized" (Tbox.fingerprint t1)
    (Tbox.fingerprint t2)

let test_fingerprint_sensitive () =
  let t1 = tbox_of_string "A [= B" in
  let t2 = tbox_of_string "A [= C" in
  let t3 = tbox_of_string "A [= B\nconcept C" in
  Alcotest.(check bool) "different axioms" false
    (Tbox.fingerprint t1 = Tbox.fingerprint t2);
  (* same axioms, larger declared signature: the signature is part of
     the semantics (it scopes classification), so it must be part of
     the fingerprint *)
  Alcotest.(check bool) "signature matters" false
    (Tbox.fingerprint t1 = Tbox.fingerprint t3)

let test_fingerprint_revert () =
  let original = tbox_of_string "A [= B\nB [= C" in
  let edited = tbox_of_string "A [= B\nB [= C\nC [= D" in
  let reverted = tbox_of_string "B [= C\nA [= B" in
  Alcotest.(check bool) "edit changes fp" false
    (Tbox.fingerprint original = Tbox.fingerprint edited);
  Alcotest.(check string) "revert restores fp" (Tbox.fingerprint original)
    (Tbox.fingerprint reverted)

(* ------------------------------ wire codec --------------------------- *)

let feed_all lines =
  let d = Wire.decoder () in
  List.filter_map
    (fun line ->
      match Wire.feed d line with
      | Wire.Request r -> Some (Result.Ok r)
      | Wire.Error e -> Some (Result.Error e)
      | Wire.More -> None)
    lines

let roundtrip r =
  match feed_all (Wire.encode_request r) with
  | [ Result.Ok r' ] -> r' = r
  | _ -> false

let test_wire_roundtrip () =
  List.iter
    (fun r -> Alcotest.(check bool) "request roundtrips" true (roundtrip r))
    [
      Wire.Load { session = "s1"; kind = Wire.K_tbox; payload = [ "A [= B"; "" ] };
      Wire.Load { session = "s1"; kind = Wire.K_facts; payload = [] };
      Wire.Load { session = "x"; kind = Wire.K_abox; payload = [ "A(a)" ] };
      Wire.Load { session = "x"; kind = Wire.K_mappings; payload = [ "m" ] };
      Wire.Classify { session = "s1" };
      Wire.Prepare { session = "s1"; name = "q0"; query = "x <- c$A(x), r$p(x, y)" };
      Wire.Ask { session = "s1"; query = Wire.Named "q0" };
      Wire.Ask { session = "s1"; query = Wire.Inline "x <- c$A(x)" };
      Wire.Stats None;
      Wire.Stats (Some "s1");
      Wire.Quit;
    ]

let test_wire_payload_verbatim () =
  (* payload lines are counted, never parsed: command-looking lines
     inside a payload must come through untouched *)
  let payload = [ "QUIT"; "ASK x ? y"; ""; "  indented " ] in
  let r = Wire.Load { session = "s"; kind = Wire.K_tbox; payload } in
  match feed_all (Wire.encode_request r) with
  | [ Result.Ok (Wire.Load l) ] ->
    Alcotest.(check (list string)) "verbatim payload" payload l.payload
  | _ -> Alcotest.fail "payload did not roundtrip"

let test_wire_malformed () =
  let errors lines =
    List.filter_map
      (function Result.Error e -> Some e | Result.Ok _ -> None)
      (feed_all lines)
  in
  Alcotest.(check int) "unknown verb" 1 (List.length (errors [ "FROBNICATE now" ]));
  Alcotest.(check int) "bad kind" 1 (List.length (errors [ "LOAD s JUNK 3" ]));
  Alcotest.(check int) "bad count" 1 (List.length (errors [ "LOAD s TBOX x" ]));
  Alcotest.(check int) "negative count" 1 (List.length (errors [ "LOAD s TBOX -1" ]));
  Alcotest.(check int) "bad session chars" 1
    (List.length (errors [ "CLASSIFY bad session" ]));
  Alcotest.(check int) "payload over limit" 1
    (List.length (errors [ "LOAD s TBOX 1000001" ]));
  (* blank lines between requests are fine *)
  Alcotest.(check int) "blank tolerated" 0 (List.length (errors [ ""; "" ]))

let test_wire_line_too_long () =
  let d = Wire.decoder ~limits:{ Wire.max_line = 64; max_payload_lines = 10 } () in
  (match Wire.feed d (String.make 100 'x') with
   | Wire.Error _ -> ()
   | _ -> Alcotest.fail "over-long line must be an error");
  (* ...and it must also abort a half-collected payload *)
  (match Wire.feed d "LOAD s TBOX 2" with
   | Wire.More -> ()
   | _ -> Alcotest.fail "LOAD header should await payload");
  (match Wire.feed d (String.make 100 'y') with
   | Wire.Error _ -> ()
   | _ -> Alcotest.fail "over-long payload line must be an error");
  match Wire.feed d "QUIT" with
  | Wire.Request Wire.Quit -> ()
  | _ -> Alcotest.fail "decoder must resynchronize after the error"

let test_wire_v2_roundtrip () =
  List.iter
    (fun r -> Alcotest.(check bool) "v2 request roundtrips" true (roundtrip r))
    [
      Wire.Hello 2;
      Wire.Hello 7;
      Wire.Bulk_chunk { session = "s1"; payload = [ "a(\"x\")"; "b(\"y\")" ] };
      Wire.Bulk_chunk { session = "s1"; payload = [] };
      Wire.Bulk_end { session = "s1" };
      Wire.Bulk_abort { session = "s1" };
    ]

let test_wire_v2_malformed () =
  let errors lines =
    List.filter_map
      (function Result.Error e -> Some e | Result.Ok _ -> None)
      (feed_all lines)
  in
  Alcotest.(check int) "HELLO 0" 1 (List.length (errors [ "HELLO 0" ]));
  Alcotest.(check int) "HELLO junk" 1 (List.length (errors [ "HELLO x" ]));
  Alcotest.(check int) "bad chunk count" 1
    (List.length (errors [ "BULK s FACTS x" ]));
  Alcotest.(check int) "negative chunk count" 1
    (List.length (errors [ "BULK s FACTS -1" ]));
  Alcotest.(check int) "bad bulk op" 1 (List.length (errors [ "BULK s WHAT" ]));
  (match errors [ "BULK s FACTS 1000001" ] with
  | [ e ] ->
    Alcotest.(check bool) "oversized chunk says so" true
      (String.length e >= 15 && String.sub e 0 15 = "chunk too large")
  | _ -> Alcotest.fail "oversized chunk must be one error");
  (* a malformed header inside a stream desynchronizes only that line:
     the decoder resumes on the next request *)
  (match feed_all [ "BULK s FACTS 1"; "a(\"x\")"; "QUIT" ] with
  | [ Result.Ok (Wire.Bulk_chunk _); Result.Ok Wire.Quit ] -> ()
  | _ -> Alcotest.fail "chunk then QUIT should decode cleanly")

let test_wire_reply_header () =
  let ok = function Result.Ok v -> v | Result.Error e -> Alcotest.fail e in
  Alcotest.(check bool) "OK n" true (ok (Wire.parse_reply_header "OK 3") = `Ok 3);
  Alcotest.(check bool) "BUSY" true (ok (Wire.parse_reply_header "BUSY") = `Busy);
  Alcotest.(check bool) "ERR msg" true
    (ok (Wire.parse_reply_header "ERR no such thing") = `Err "no such thing");
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Wire.parse_reply_header "WAT"));
  Alcotest.(check bool) "negative OK rejected" true
    (Result.is_error (Wire.parse_reply_header "OK -2"))

(* ------------------------------- service ----------------------------- *)

let sample_tbox =
  tbox_of_string
    "role worksFor\nManager [= Employee\nEmployee [= Person\nEmployee [= exists worksFor"

(* the service's one front door: wire requests through [Service.handle],
   built from the text the replay renderers produce *)
let ok = function
  | Wire.Ok lines -> lines
  | Wire.Err e -> Alcotest.fail ("unexpected ERR " ^ e)
  | Wire.Busy -> Alcotest.fail "unexpected BUSY"

let load t session kind payload =
  ignore (ok (Service.handle t (Wire.Load { session; kind; payload })))

let set_tbox t session tbox = load t session Wire.K_tbox (Service.tbox_payload tbox)

let add_abox t session assertions =
  load t session Wire.K_abox
    (List.map Conformance.Corpus.render_assertion assertions)

let ask t session text =
  ok (Service.handle t (Wire.Ask { session; query = Wire.Inline text }))

let test_service_answers_and_hits () =
  (* a private registry: the process-wide default would accumulate
     counts across test cases and break the exact-count assertions *)
  let registry = Obs.Registry.create () in
  let t = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry () in
  set_tbox t "s" sample_tbox;
  add_abox t "s"
    [ Abox.Concept_assert ("Manager", "ada"); Abox.Concept_assert ("Employee", "bob") ];
  let cold = ask t "s" "x <- Person(x)" in
  Alcotest.(check (list string)) "subsumption answers" [ "ada"; "bob" ] cold;
  let warm = ask t "s" "x <- Person(x)" in
  Alcotest.(check (list string)) "warm identical" cold warm;
  let lines = Service.stats_lines t in
  (match lines with
   | version :: _ ->
     Alcotest.(check string) "versioned schema" "stats.version 2" version
   | [] -> Alcotest.fail "empty stats");
  (* the second ask must be an answer-cache hit, now a registry sample *)
  let has_hit =
    List.mem "obda_cache_hits_total cache=answers,session=s 1" lines
  in
  Alcotest.(check bool) "answer cache hit recorded" true has_hit

let test_service_invalidation_on_insert () =
  let t = Service.create ~config:{ Service.Config.default with lru = 8 } () in
  set_tbox t "s" sample_tbox;
  add_abox t "s" [ Abox.Concept_assert ("Employee", "ada") ];
  Alcotest.(check (list string)) "before" [ "ada" ] (ask t "s" "x <- Person(x)");
  ignore (ask t "s" "x <- Person(x)");
  add_abox t "s" [ Abox.Concept_assert ("Manager", "eve") ];
  Alcotest.(check (list string)) "insert visible immediately" [ "ada"; "eve" ]
    (ask t "s" "x <- Person(x)")

let test_service_invalidation_on_tbox_swap () =
  let t = Service.create ~config:{ Service.Config.default with lru = 8 } () in
  set_tbox t "s" sample_tbox;
  add_abox t "s" [ Abox.Concept_assert ("Manager", "ada") ];
  Alcotest.(check (list string)) "with subsumption" [ "ada" ]
    (ask t "s" "x <- Person(x)");
  (* drop Employee [= Person: ada must stop being a Person *)
  let weaker =
    tbox_of_string "role worksFor\nManager [= Employee\nconcept Person"
  in
  set_tbox t "s" weaker;
  Alcotest.(check (list string)) "swap visible immediately" []
    (ask t "s" "x <- Person(x)");
  (* revert: the fingerprint-keyed rewrite cache may re-hit, but the
     answers must again include the subsumption *)
  set_tbox t "s" sample_tbox;
  Alcotest.(check (list string)) "revert restores" [ "ada" ]
    (ask t "s" "x <- Person(x)")

let test_service_wire_handle () =
  let t = Service.create ~config:{ Service.Config.default with lru = 8 } () in
  let tbox_text = "role p\nA [= exists p\nexists p^- [= B" in
  ignore
    (ok
       (Service.handle t
          (Wire.Load
             {
               session = "w";
               kind = Wire.K_tbox;
               payload = Wire.payload_of_text tbox_text;
             })));
  ignore
    (ok
       (Service.handle t
          (Wire.Load { session = "w"; kind = Wire.K_abox; payload = [ "A(a)" ] })));
  (* boolean query via the anonymous-witness rewriting: exists p^- [= B
     and A [= exists p make B() certain even with no named B *)
  let answers =
    ok (Service.handle t (Wire.Ask { session = "w"; query = Wire.Inline "<- B(x)" }))
  in
  Alcotest.(check (list string)) "boolean yes" [ "()" ] answers;
  (match Service.handle t (Wire.Ask { session = "nope"; query = Wire.Inline "x <- A(x)" }) with
   | Wire.Err _ -> ()
   | _ -> Alcotest.fail "unknown session must ERR");
  (match
     Service.handle t (Wire.Ask { session = "w"; query = Wire.Inline "x <- A(x" })
   with
   | Wire.Err _ -> ()
   | _ -> Alcotest.fail "bad query must ERR");
  ignore
    (ok
       (Service.handle t
          (Wire.Prepare { session = "w"; name = "q1"; query = "x <- A(x)" })));
  let named =
    ok (Service.handle t (Wire.Ask { session = "w"; query = Wire.Named "q1" }))
  in
  Alcotest.(check (list string)) "prepared query answers" [ "a" ] named;
  let stats = ok (Service.handle t (Wire.Stats None)) in
  Alcotest.(check bool) "stats non-empty" true (List.length stats > 3)

let test_service_facts_load_atomic () =
  (* a LOAD FACTS with any malformed line must leave the database (and
     the version, hence the answer cache) untouched — a partial insert
     without a version bump would serve stale cached answers over a
     half-loaded KB *)
  let t = Service.create ~config:{ Service.Config.default with lru = 8 } () in
  let load kind payload =
    Service.handle t (Wire.Load { session = "f"; kind; payload })
  in
  let ask () =
    ok (Service.handle t (Wire.Ask { session = "f"; query = Wire.Inline "x <- A(x)" }))
  in
  ignore (ok (load Wire.K_tbox [ "concept A" ]));
  ignore (ok (load Wire.K_mappings [ "map A(x) <- t(x)" ]));
  ignore (ok (load Wire.K_facts [ "t(a)" ]));
  Alcotest.(check (list string)) "baseline" [ "a" ] (ask ());
  (* the good line precedes the bad one: nothing of it may stick *)
  (match load Wire.K_facts [ "t(b)"; "this is not a fact" ] with
   | Wire.Err _ -> ()
   | _ -> Alcotest.fail "malformed facts payload must ERR");
  Alcotest.(check (list string)) "unchanged after failed load" [ "a" ] (ask ());
  ignore (ok (load Wire.K_facts [ "t(c)" ]));
  (* the version bump makes the post-update answer fresh: b must not
     have leaked in during the failed load *)
  Alcotest.(check (list string)) "only the successful loads" [ "a"; "c" ] (ask ())

let test_service_bulk_stream () =
  let t = Service.create ~config:{ Service.Config.default with lru = 8 } () in
  let chunk payload =
    Service.handle t (Wire.Bulk_chunk { session = "b"; payload })
  in
  let ask () =
    ok
      (Service.handle t
         (Wire.Ask { session = "b"; query = Wire.Inline "x <- A(x)" }))
  in
  ignore
    (ok
       (Service.handle t
          (Wire.Load { session = "b"; kind = Wire.K_tbox; payload = [ "concept A" ] })));
  ignore
    (ok
       (Service.handle t
          (Wire.Load
             { session = "b"; kind = Wire.K_mappings; payload = [ "map A(x) <- t(x)" ] })));
  (* END/ABORT against a session with no active stream *)
  (match Service.handle t (Wire.Bulk_end { session = "b" }) with
  | Wire.Err _ -> ()
  | _ -> Alcotest.fail "END with no stream must ERR");
  Alcotest.(check (list string)) "ABORT with no stream is idempotent" []
    (ok (Service.handle t (Wire.Bulk_abort { session = "b" })));
  (* ...and against a session that does not exist at all *)
  (match Service.handle t (Wire.Bulk_end { session = "ghost" }) with
  | Wire.Err _ -> ()
  | _ -> Alcotest.fail "END on unknown session must ERR");
  (* a cached answer must not mask mid-stream chunks: ask, load a
     chunk, ask again without an END in between *)
  Alcotest.(check (list string)) "warm the cache" [] (ask ());
  ignore (ok (chunk [ "t(a)" ]));
  Alcotest.(check (list string)) "chunk visible before END" [ "a" ] (ask ());
  (* a malformed line rejects exactly its own chunk *)
  (match chunk [ "t(b)"; "this is not a fact" ] with
  | Wire.Err _ -> ()
  | _ -> Alcotest.fail "malformed chunk must ERR");
  Alcotest.(check (list string)) "bad chunk left no trace" [ "a" ] (ask ());
  ignore (ok (chunk [ "t(c)"; "t(d)" ]));
  (* the summary counts acked chunks only *)
  Alcotest.(check (list string)) "END summary" [ "chunks 2 facts 3" ]
    (ok (Service.handle t (Wire.Bulk_end { session = "b" })));
  Alcotest.(check (list string)) "all acked chunks stay" [ "a"; "c"; "d" ]
    (ask ());
  (* mid-stream ABORT: acked chunks are durable and stay; the stream
     is closed, so a following END has nothing to end *)
  ignore (ok (chunk [ "t(e)" ]));
  ignore (ok (Service.handle t (Wire.Bulk_abort { session = "b" })));
  Alcotest.(check (list string)) "aborted stream keeps acked chunks"
    [ "a"; "c"; "d"; "e" ] (ask ());
  match Service.handle t (Wire.Bulk_end { session = "b" }) with
  | Wire.Err _ -> ()
  | _ -> Alcotest.fail "END after ABORT must ERR"

(* how each ask was answered: served as stored, refreshed by delta after
   a one-row FACTS load (and equal to a fresh engine's answer), then
   refreshed in full after a TBox load clears the fact journal.  Only
   the first kind counts as an answer-cache hit. *)
let test_service_answer_paths () =
  let registry = Obs.Registry.create () in
  let t = Service.create ~config:{ Service.Config.default with lru = 8 } ~registry () in
  let counted name labels =
    List.find_map
      (fun { Obs.name = n; labels = l; value } ->
        if n = name && l = labels then Some (int_of_float value) else None)
      (Obs.Registry.samples registry)
    |> Option.value ~default:0
  in
  let paths () =
    List.map
      (fun p -> counted "obda_answers_total" [ ("path", p) ])
      [ "hit"; "delta"; "full" ]
  in
  let tbox = [ "concept A"; "role p" ] in
  let mappings = [ "map A(x) <- t(x)"; "map p(x, y) <- r(x, y)" ] in
  let facts = ref [ "t(a)"; "t(b)"; "r(a, b)"; "r(c, a)" ] in
  let query = "x, y <- A(x), p(x, y)" in
  load t "d" Wire.K_tbox tbox;
  load t "d" Wire.K_mappings mappings;
  load t "d" Wire.K_facts !facts;
  let fresh () =
    let tb =
      match Parser.tbox_of_string (String.concat "\n" tbox) with
      | Result.Ok tb -> tb
      | Result.Error e -> Alcotest.fail e
    in
    let signature = Tbox.signature tb in
    let database = Obda.Database.create () in
    List.iter
      (fun (rel, row) -> Obda.Database.insert database rel row)
      (Obda.Qparse.parse_facts (String.concat "\n" !facts));
    let engine =
      Obda.Engine.create ~tbox:tb
        ~mappings:(Obda.Qparse.parse_mappings ~signature (String.concat "\n" mappings))
        ~database ()
    in
    List.map Service.render_tuple
      (List.sort_uniq compare
         (Obda.Engine.certain_answers engine (Obda.Qparse.parse_query ~signature query)))
  in
  Alcotest.(check (list string)) "cold" [ "a, b" ] (ask t "d" query);
  Alcotest.(check (list int)) "cold ask: full" [ 0; 0; 1 ] (paths ());
  ignore (ask t "d" query);
  Alcotest.(check (list int)) "repeat: hit" [ 1; 0; 1 ] (paths ());
  (* one row that joins with a stored one: the delta rule must find the
     new answer through either atom *)
  load t "d" Wire.K_facts [ "r(b, c)" ];
  facts := !facts @ [ "r(b, c)" ];
  let refreshed = ask t "d" query in
  Alcotest.(check (list int)) "after one-row load: delta" [ 1; 1; 1 ] (paths ());
  Alcotest.(check (list string)) "delta = fresh engine" (fresh ()) refreshed;
  Alcotest.(check (list string)) "new answer present" [ "a, b"; "b, c" ] refreshed;
  load t "d" Wire.K_facts [ "t(c)" ];
  facts := !facts @ [ "t(c)" ];
  Alcotest.(check (list string)) "delta through the other atom" (fresh ())
    (ask t "d" query);
  Alcotest.(check (list int)) "second delta" [ 1; 2; 1 ] (paths ());
  load t "d" Wire.K_tbox tbox;
  Alcotest.(check (list string)) "after TBox load" (fresh ()) (ask t "d" query);
  Alcotest.(check (list int)) "after TBox load: full" [ 1; 2; 2 ] (paths ());
  Alcotest.(check int) "only stored answers count as cache hits" 1
    (counted "obda_cache_hits_total" [ ("cache", "answers"); ("session", "d") ]);
  (* a FACTS load that fails part-way leaves its first row stored but in
     no journal batch; the next, unrelated load must not let a delta
     refresh skip that row *)
  ignore (ask t "d" query);
  (match
     Service.handle t
       (Wire.Load { session = "d"; kind = Wire.K_facts; payload = [ "r(c, d)"; "r(e)" ] })
   with
   | Wire.Err _ | (exception Invalid_argument _) -> ()
   | _ -> Alcotest.fail "a mixed-arity load must fail");
  facts := !facts @ [ "r(c, d)" ];
  load t "d" Wire.K_facts [ "u(z)" ];
  facts := !facts @ [ "u(z)" ];
  Alcotest.(check (list string)) "after a failed load" (fresh ()) (ask t "d" query);
  Alcotest.(check (list int)) "after a failed load: full" [ 2; 2; 3 ] (paths ())

(* quoted constants keep their commas and may be empty, whether they
   arrive as FACTS, as ABOX assertions or inside a query *)
let test_service_quoted_constants () =
  let t = Service.create ~config:{ Service.Config.default with lru = 8 } () in
  load t "q" Wire.K_tbox [ "concept Person"; "attr name" ];
  load t "q" Wire.K_facts [ {|a$name("p1", "Smith, J")|} ];
  Alcotest.(check (list string)) "FACTS value asked by constant" [ "p1" ]
    (ask t "q" {|x <- name(x, "Smith, J")|});
  load t "q" Wire.K_abox [ {|name(p2, "Doe, A")|}; {|Person("")|} ];
  Alcotest.(check (list string)) "ABOX value asked by constant" [ "p2" ]
    (ask t "q" {|x <- name(x, "Doe, A")|});
  Alcotest.(check (list string)) "empty constant" [ "()" ]
    (ask t "q" {|<- Person("")|});
  Alcotest.(check (list string)) "values come back whole"
    [ "p1, Smith, J"; "p2, Doe, A" ]
    (ask t "q" "x, y <- name(x, y)")

let test_service_unknown_session () =
  let t = Service.create ~config:{ Service.Config.default with lru = 8 } () in
  set_tbox t "known" sample_tbox;
  let refused request =
    match Service.handle t request with
    | Wire.Err e -> e
    | _ -> Alcotest.fail "a read on an unknown session must ERR"
  in
  Alcotest.(check string) "ask" "unknown session ghost"
    (refused (Wire.Ask { session = "ghost"; query = Wire.Inline "x <- Person(x)" }));
  Alcotest.(check string) "classify" "unknown session ghost"
    (refused (Wire.Classify { session = "ghost" }));
  (* and the failed reads must not have materialized the session *)
  Alcotest.(check (list string)) "no ghost session" [ "known" ]
    (Service.session_names t)

(* --------------------------- line reading ---------------------------- *)

(* the server's connection reader is [Durable.Io.read_line] over a raw
   descriptor; exercise it through a file *)
let read_lines_of_string content =
  let path = Filename.temp_file "server_test" ".txt" in
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc;
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let reader = Durable.Io.reader fd in
  let rec go acc =
    match Durable.Io.read_line reader ~max_line:1024 with
    | Some line -> go (line :: acc)
    | None -> List.rev acc
  in
  let lines = go [] in
  Unix.close fd;
  Sys.remove path;
  lines

let test_read_line_crlf () =
  (* only a CR that immediately precedes the newline is line-ending
     decoration; any other CR is content and must survive *)
  Alcotest.(check (list string))
    "CRLF stripped, embedded CR kept"
    [ "abc"; "a\rb"; "trailing\r" ]
    (read_lines_of_string "abc\r\na\rb\ntrailing\r")

(* -------------------- observability round-trips ---------------------- *)

let test_lru_obs_registration () =
  let r = Obs.Registry.create () in
  let c = Lru.create ~metrics:(r, [ ("cache", "t") ]) ~capacity:1 () in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  ignore (Lru.find c "b");
  ignore (Lru.find c "a");
  let v name =
    List.find_map
      (fun { Obs.name = n; labels; value } ->
        if n = name && labels = [ ("cache", "t") ] then Some value else None)
      (Obs.Registry.samples r)
  in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check (option (float 0.))) name (Some expected) (v name))
    [
      ("obda_cache_hits_total", 1.0);
      ("obda_cache_misses_total", 1.0);
      ("obda_cache_evictions_total", 1.0);
      ("obda_cache_insertions_total", 2.0);
      ("obda_cache_size", 1.0);
      ("obda_cache_capacity", 1.0);
    ];
  (* derived accessors agree with the registry *)
  Alcotest.(check (float 0.)) "hit_rate agrees" 0.5 (Lru.hit_rate c);
  Lru.unregister c;
  Alcotest.(check int) "unregister removes all series" 0
    (List.length (Obs.Registry.samples r))

(* [Serve.stop] counts a task still running when the drain begins.  One
   worker holds a task until admissions are closed; the probes that
   detect the closing (the queue is unbounded, so only closing refuses
   one) were all admitted behind it, so each is still queued at that
   moment and counted too *)
let test_stop_counts_running () =
  let srv =
    Server.Serve.create
      ~config:{ Server.Serve.default_config with workers = 1; queue_capacity = max_int }
      (Service.create ())
  in
  Server.Serve.start srv;
  let exec = Server.Serve.executor srv in
  let m = Mutex.create () and c = Condition.create () in
  let started = ref false and release = ref false in
  let set flag =
    Mutex.lock m;
    flag := true;
    Condition.broadcast c;
    Mutex.unlock m
  in
  let wait_for flag =
    Mutex.lock m;
    while not !flag do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  Alcotest.(check bool) "held task admitted" true
    (Parallel.Executor.try_submit exec (fun () ->
         set started;
         wait_for release));
  wait_for started;
  let drained = ref (-1) in
  let stopper = Thread.create (fun () -> drained := Server.Serve.stop srv) () in
  let probes = ref 0 in
  while Parallel.Executor.try_submit exec ignore do
    incr probes;
    Thread.yield ()
  done;
  set release;
  Thread.join stopper;
  Alcotest.(check int) "held task and queued probes counted" (1 + !probes) !drained

(* the versioned STATS schema round-trips through a real loopback
   server and the typed [Client.stats] accessor *)
let test_loopback_client_stats () =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "obda-test-stats-%d.sock" (Unix.getpid ()))
  in
  (* the default registry, as in a real server process: library-level
     spans (rewrite, eval) record there, so they must show up in STATS;
     the assertions below are robust to counts accumulated by other
     test cases sharing the process *)
  let service = Service.create ~config:{ Service.Config.default with lru = 8 } () in
  let srv = Server.Serve.create service in
  ignore (Server.Serve.listen_unix srv sock);
  Server.Serve.start srv;
  Fun.protect
    ~finally:(fun () ->
      ignore (Server.Serve.stop srv);
      try Unix.unlink sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  let conn =
    match Server.Client.connect ("unix:" ^ sock) with
    | Result.Ok c -> c
    | Result.Error e -> Alcotest.fail e
  in
  Fun.protect ~finally:(fun () -> Server.Client.close conn) @@ fun () ->
  let ok = function
    | Result.Ok (Wire.Ok lines) -> lines
    | Result.Ok (Wire.Err e) -> Alcotest.fail ("unexpected ERR " ^ e)
    | Result.Ok Wire.Busy -> Alcotest.fail "unexpected BUSY"
    | Result.Error e -> Alcotest.fail e
  in
  ignore
    (ok
       (Server.Client.request conn
          (Wire.Load
             { session = "loop"; kind = Wire.K_tbox; payload = [ "A [= B" ] })));
  ignore
    (ok
       (Server.Client.request conn
          (Wire.Load { session = "loop"; kind = Wire.K_abox; payload = [ "A(a)" ] })));
  Alcotest.(check (list string))
    "subsumption answer" [ "a" ]
    (ok
       (Server.Client.request conn
          (Wire.Ask { session = "loop"; query = Wire.Inline "x <- B(x)" })));
  let kv =
    match Server.Client.stats conn with
    | Result.Ok kv -> kv
    | Result.Error e -> Alcotest.fail e
  in
  let get k = List.assoc_opt k kv in
  Alcotest.(check (option (float 0.)))
    "session facts" (Some 1.0)
    (get "obda_session_facts{session=loop}");
  Alcotest.(check (option (float 0.)))
    "sessions gauge" (Some 1.0) (get "obda_service_sessions");
  Alcotest.(check bool) "ask latency histogram populated" true
    (match get "obda_op_seconds_count{op=ask}" with
     | Some n -> n >= 1.0
     | None -> false);
  Alcotest.(check bool) "classify phases present" true
    (match get "obda_phase_seconds_count{phase=rewrite}" with
     | Some n -> n >= 1.0
     | None -> false);
  match Server.Client.metrics conn with
  | Result.Ok (first :: rest) ->
    Alcotest.(check string) "exposition header" "# stats.version 2" first;
    Alcotest.(check bool) "exposition has TYPE lines" true
      (List.exists
         (fun l -> String.length l >= 7 && String.sub l 0 7 = "# TYPE ")
         rest)
  | Result.Ok [] -> Alcotest.fail "empty exposition"
  | Result.Error e -> Alcotest.fail e

(* --------------------- the invalidation property --------------------- *)

(* Random interleavings of updates and (frequently repeated) queries:
   the cached service must answer byte-identically to a fresh engine
   built from scratch over the session's accumulated state, at every
   capacity — 0 (caching off), 1, and small values that force constant
   eviction are the interesting ones.  The service is driven through its
   wire front door; its reply lines are compared with the fresh
   engine's answers rendered the same way. *)

let reference_answers tbox assertions query =
  let engine = Obda.Engine.of_abox tbox (Abox.of_list assertions) in
  List.map Service.render_tuple
    (List.sort_uniq compare (Obda.Engine.certain_answers engine query))

(* assertions as FACTS lines over their tagged relations: the form BULK
   chunks take, and one that parses whatever the current TBox *)
let facts_of assertions =
  List.map
    (fun a ->
      let rel, row = Obda.Vabox.fact_of_assertion a in
      Service.fact_line rel row)
    assertions

let scenario_agrees ~capacity seed =
  let rng = Ontgen.Rng.create seed in
  let service = Service.create ~config:{ Service.Config.default with lru = capacity } () in
  let session = "prop" in
  let tbox = ref (Ontgen.Casegen.tbox rng) in
  let assertions = ref [] in
  set_tbox service session !tbox;
  let queries = ref [ Ontgen.Casegen.query rng ] in
  let ops = 14 + Ontgen.Rng.int rng 8 in
  let failure = ref None in
  let check_ask () =
    (* usually a repeat of an earlier query: repeats are where a stale
       cache entry would surface *)
    let query = List.nth !queries (Ontgen.Rng.int rng (List.length !queries)) in
    let served =
      ask service session
        (Obda.Qparse.query_text ~signature:(Tbox.signature !tbox) query)
    in
    let fresh = reference_answers !tbox !assertions query in
    if served <> fresh && !failure = None then failure := Some (query, served, fresh)
  in
  for _ = 1 to ops do
    if !failure = None then
      match Ontgen.Rng.int rng 12 with
      | 0 | 1 ->
        (* swap the TBox (sometimes swap *back* to an earlier structure
           by regenerating from a fresh rng — fingerprint re-hits) *)
        tbox := Ontgen.Casegen.tbox rng;
        set_tbox service session !tbox
      | 2 | 3 ->
        let abox = Ontgen.Casegen.abox rng in
        assertions := !assertions @ Abox.assertions abox;
        add_abox service session (Abox.assertions abox)
      | 4 ->
        queries := Ontgen.Casegen.query rng :: !queries
      | 10 ->
        (* re-load rows that are already stored: a journaled batch that
           adds no answers *)
        let again = List.filter (fun _ -> Ontgen.Rng.bool rng 0.5) !assertions in
        load service session Wire.K_facts (facts_of again)
      | 11 ->
        (* a BULK stream: chunks (visible at once, never cached), asks
           mid-stream, then END or ABORT *)
        for _ = 0 to Ontgen.Rng.int rng 3 do
          let chunk = Abox.assertions (Ontgen.Casegen.abox rng) in
          assertions := !assertions @ chunk;
          ignore
            (ok
               (Service.handle service
                  (Wire.Bulk_chunk { session; payload = facts_of chunk })));
          if Ontgen.Rng.bool rng 0.5 then check_ask ()
        done;
        ignore
          (ok
             (Service.handle service
                (if Ontgen.Rng.bool rng 0.5 then Wire.Bulk_end { session }
                 else Wire.Bulk_abort { session })))
      | _ -> check_ask ()
  done;
  match !failure with
  | None -> true
  | Some (query, served, fresh) ->
    QCheck.Test.fail_reportf
      "capacity %d seed %d: served %s but fresh engine says %s for %s" capacity
      seed
      (String.concat "; " served) (String.concat "; " fresh)
      (Obda.Cq.to_string query)

let prop_cached_answers_sound capacity =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "cached = fresh (lru capacity %d)" capacity)
    QCheck.(int_bound 1_000_000)
    (fun seed -> scenario_agrees ~capacity seed)

(* -------------------------------- suite ------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "capacity 0" `Quick test_lru_capacity_zero;
          Alcotest.test_case "capacity 1" `Quick test_lru_capacity_one;
          Alcotest.test_case "remove/clear" `Quick test_lru_remove_and_clear;
          Alcotest.test_case "negative capacity" `Quick test_lru_negative_capacity;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "stable" `Quick test_fingerprint_stable;
          Alcotest.test_case "sensitive" `Quick test_fingerprint_sensitive;
          Alcotest.test_case "revert" `Quick test_fingerprint_revert;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "payload verbatim" `Quick test_wire_payload_verbatim;
          Alcotest.test_case "malformed" `Quick test_wire_malformed;
          Alcotest.test_case "line too long" `Quick test_wire_line_too_long;
          Alcotest.test_case "reply header" `Quick test_wire_reply_header;
          Alcotest.test_case "v2 roundtrip" `Quick test_wire_v2_roundtrip;
          Alcotest.test_case "v2 malformed" `Quick test_wire_v2_malformed;
        ] );
      ( "service",
        [
          Alcotest.test_case "answers + hits" `Quick test_service_answers_and_hits;
          Alcotest.test_case "insert invalidates" `Quick
            test_service_invalidation_on_insert;
          Alcotest.test_case "tbox swap invalidates" `Quick
            test_service_invalidation_on_tbox_swap;
          Alcotest.test_case "wire handle" `Quick test_service_wire_handle;
          Alcotest.test_case "facts load atomic" `Quick
            test_service_facts_load_atomic;
          Alcotest.test_case "unknown session" `Quick
            test_service_unknown_session;
          Alcotest.test_case "quoted constants" `Quick
            test_service_quoted_constants;
          Alcotest.test_case "bulk stream" `Quick test_service_bulk_stream;
          Alcotest.test_case "answer paths" `Quick test_service_answer_paths;
        ] );
      ( "line-reader",
        [ Alcotest.test_case "crlf" `Quick test_read_line_crlf ] );
      ( "observability",
        [
          Alcotest.test_case "lru registers metrics" `Quick
            test_lru_obs_registration;
          Alcotest.test_case "versioned STATS round-trip" `Quick
            test_loopback_client_stats;
          Alcotest.test_case "stop counts a running task" `Quick
            test_stop_counts_running;
        ] );
      ( "invalidation-property",
        List.map
          (fun capacity ->
            QCheck_alcotest.to_alcotest (prop_cached_answers_sound capacity))
          [ 0; 1; 2; 8 ] );
    ]
