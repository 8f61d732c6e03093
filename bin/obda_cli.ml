(* Command-line front end for the OBDA toolkit.

   Subcommands mirror the Section-3 workflow:
     classify      graph-based classification (Phi_T + Omega_T)
     taxonomy      classification as an indented Hasse-diagram tree
     unsat         unsatisfiable predicates (computeUnsat)
     implies       logical implication queries
     rewrite       PerfectRef / Presto UCQ rewriting
     render        diagram export (DOT or SVG)
     modularize    horizontal / vertical modularization report
     generate      synthetic benchmark ontologies
     doc           automated documentation (Markdown / HTML)
     diff          syntactic + logical diff of two versions
     sql           rewriting + unfolding compiled to SQL text
     answer        certain answers over mapped relational data
     analyze       static mapping checks
     export-owl    OWL 2 QL functional-syntax export
     import-owl    OWL 2 QL functional-syntax import

   Ontologies are read in the ASCII DL-Lite syntax (see README). *)

open Cmdliner
open Dllite

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_tbox path =
  match Parser.tbox_of_string (read_file path) with
  | Ok t -> t
  | Error e ->
    Printf.eprintf "error: %s: %s\n" path e;
    exit 1

let tbox_arg =
  let doc = "Ontology file in the ASCII DL-Lite syntax." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"ONTOLOGY" ~doc)

(* ------------------------------ classify ----------------------------- *)

let classify_cmd =
  let run path show_equiv jobs =
    let tbox = load_tbox path in
    let t0 = Unix.gettimeofday () in
    let cls = Quonto.Classify.classify ~pool:(Parallel.Pool.global ~jobs ()) tbox in
    let elapsed = Unix.gettimeofday () -. t0 in
    let subs = Quonto.Classify.name_level cls in
    List.iter (fun s -> print_endline (Quonto.Classify.line s)) subs;
    if show_equiv then begin
      Format.printf "@.equivalence classes:@.";
      List.iter
        (fun cls_names ->
          if List.length cls_names > 1 then
            Format.printf "  {%s}@." (String.concat ", " cls_names))
        (Quonto.Classify.equivalence_classes cls)
    end;
    Format.eprintf "%d subsumptions in %.3fs@." (List.length subs) elapsed
  in
  let equiv =
    Arg.(value & flag & info [ "equivalences" ] ~doc:"Also print equivalence classes.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ]
             ~doc:"Domain-pool width for the transitive closure.  The \
                   classification is identical at every width.")
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify a DL-Lite ontology with the digraph method.")
    Term.(const run $ tbox_arg $ equiv $ jobs)

(* ------------------------------- unsat ------------------------------- *)

let unsat_cmd =
  let run path =
    let tbox = load_tbox path in
    let enc = Quonto.Encoding.build tbox in
    let unsat = Quonto.Unsat.compute enc in
    match Quonto.Unsat.unsat_exprs unsat with
    | [] -> print_endline "coherent: no unsatisfiable predicates"
    | exprs ->
      List.iter (fun e -> Format.printf "unsatisfiable: %s@." (Syntax.expr_to_string e)) exprs;
      exit 2
  in
  Cmd.v
    (Cmd.info "unsat"
       ~doc:"Run computeUnsat; exit 2 if the ontology has unsatisfiable predicates.")
    Term.(const run $ tbox_arg)

(* ------------------------------ implies ------------------------------ *)

let implies_cmd =
  let run path axiom_text on_demand =
    let tbox = load_tbox path in
    (* parse the query axiom in the context of the ontology's signature:
       prepend declarations so sorts resolve *)
    let s = Tbox.signature tbox in
    let decls =
      String.concat "\n"
        (List.map (Printf.sprintf "concept %s") (Signature.concepts s)
        @ List.map (Printf.sprintf "role %s") (Signature.roles s)
        @ List.map (Printf.sprintf "attr %s") (Signature.attributes s))
    in
    match Parser.tbox_of_string (decls ^ "\n" ^ axiom_text) with
    | Error e ->
      Printf.eprintf "query parse error: %s\n" e;
      exit 1
    | Ok query_tbox -> (
      match Tbox.axioms query_tbox with
      | [ ax ] ->
        let holds =
          if on_demand then
            Quonto.Implication.entails (Quonto.Implication.prepare tbox) ax
          else Quonto.Deductive.entails (Quonto.Deductive.compute tbox) ax
        in
        print_endline (if holds then "entailed" else "not entailed");
        if not holds then exit 3
      | _ ->
        prerr_endline "expected exactly one axiom";
        exit 1)
  in
  let axiom_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"AXIOM"
           ~doc:"Axiom in ASCII syntax, e.g. \"A [= exists p . B\".")
  in
  let on_demand =
    Arg.(value & flag
         & info [ "on-demand" ] ~doc:"Use the closure-free on-demand engine.")
  in
  Cmd.v
    (Cmd.info "implies" ~doc:"Decide whether the ontology entails an axiom.")
    Term.(const run $ tbox_arg $ axiom_arg $ on_demand)

(* ------------------------------ rewrite ------------------------------ *)

let rewrite_cmd =
  let run path query_text presto =
    let tbox = load_tbox path in
    match Obda.Qparse.parse_query ~signature:(Tbox.signature tbox) query_text with
    | exception Obda.Qparse.Parse_error e ->
      Printf.eprintf "query error: %s\n" e;
      exit 1
    | q ->
      let rewritten, stats =
        if presto then Obda.Rewrite.presto_ref tbox [ q ]
        else Obda.Rewrite.perfect_ref tbox [ q ]
      in
      List.iter (fun q' -> print_endline (Obda.Cq.to_string q')) rewritten;
      Format.eprintf "%d disjuncts (%d generated, %d rounds)@."
        stats.Obda.Rewrite.output_size stats.Obda.Rewrite.generated
        stats.Obda.Rewrite.iterations
  in
  let query_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Query, e.g. \"x <- worksFor(x, y)\".")
  in
  let presto =
    Arg.(value & flag & info [ "presto" ] ~doc:"Use the classification-aided rule base.")
  in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Compute the perfect UCQ rewriting of a query.")
    Term.(const run $ tbox_arg $ query_arg $ presto)

(* ------------------------------- render ------------------------------ *)

let render_cmd =
  let run path format output =
    let tbox = load_tbox path in
    let diagram = Graphical.Translate.of_tbox tbox in
    let contents =
      match format with
      | "dot" -> Graphical.Dot.render diagram
      | "svg" -> Graphical.Layout.to_svg diagram
      | other ->
        Printf.eprintf "unknown format %s (use dot or svg)\n" other;
        exit 1
    in
    match output with
    | None -> print_string contents
    | Some out ->
      let oc = open_out out in
      output_string oc contents;
      close_out oc
  in
  let format =
    Arg.(value & opt string "dot" & info [ "format"; "f" ] ~doc:"dot or svg.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Render the ontology in the graphical language.")
    Term.(const run $ tbox_arg $ format $ output)

(* ----------------------------- modularize ---------------------------- *)

let modularize_cmd =
  let run path =
    let tbox = load_tbox path in
    Format.printf "== horizontal modules (connected components) ==@.";
    List.iter
      (fun m ->
        Format.printf "  %-16s %4d axioms  %4d concepts@." m.Graphical.Modular.name
          (Tbox.axiom_count m.Graphical.Modular.tbox)
          (Signature.concept_count (Tbox.signature m.Graphical.Modular.tbox)))
      (Graphical.Modular.horizontal tbox);
    Format.printf "== vertical views ==@.";
    List.iter
      (fun (name, view) ->
        Format.printf "  %-10s %4d axioms@." name (Tbox.axiom_count view))
      (Graphical.Modular.views tbox)
  in
  Cmd.v
    (Cmd.info "modularize" ~doc:"Report the 2-D modularization of the ontology.")
    Term.(const run $ tbox_arg)

(* ------------------------------ taxonomy ----------------------------- *)

let taxonomy_cmd =
  let run path sort =
    let tbox = load_tbox path in
    let cls = Quonto.Classify.classify tbox in
    let sort =
      match sort with
      | "concepts" -> Quonto.Classify.Concepts
      | "roles" -> Quonto.Classify.Roles
      | "attributes" -> Quonto.Classify.Attributes
      | other ->
        Printf.eprintf "unknown sort %s (use concepts, roles or attributes)\n" other;
        exit 1
    in
    let taxonomy = Quonto.Taxonomy.build cls sort in
    Format.printf "%a" (fun fmt t -> Quonto.Taxonomy.pp fmt t) taxonomy
  in
  let sort =
    Arg.(value & opt string "concepts"
         & info [ "sort" ] ~doc:"concepts, roles or attributes.")
  in
  Cmd.v
    (Cmd.info "taxonomy" ~doc:"Print the classification as an indented taxonomy tree.")
    Term.(const run $ tbox_arg $ sort)

(* ------------------------------ generate ----------------------------- *)

let generate_cmd =
  let run label scale seed =
    match Ontgen.Profiles.by_label label with
    | None ->
      Printf.eprintf "unknown profile %s; known: %s\n" label
        (String.concat ", "
           (List.map (fun p -> p.Ontgen.Generator.label) Ontgen.Profiles.figure1));
      exit 1
    | Some profile ->
      let tbox =
        Ontgen.Generator.generate ~seed (Ontgen.Generator.scale scale profile)
      in
      (* print with declarations so the output reparses losslessly *)
      let s = Tbox.signature tbox in
      List.iter (Printf.printf "concept %s\n") (Signature.concepts s);
      List.iter (Printf.printf "role %s\n") (Signature.roles s);
      List.iter (Printf.printf "attr %s\n") (Signature.attributes s);
      List.iter
        (fun ax -> print_endline (Syntax.axiom_to_string ax))
        (Tbox.axioms tbox)
  in
  let label =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROFILE"
           ~doc:"Benchmark profile label, e.g. Galen.")
  in
  let scale =
    Arg.(value & opt float 0.05 & info [ "scale" ] ~doc:"Signature scale factor.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Generator seed.") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit a synthetic benchmark ontology to stdout.")
    Term.(const run $ label $ scale $ seed)

(* -------------------------------- doc -------------------------------- *)

let doc_cmd =
  let run path format output =
    let tbox = load_tbox path in
    let document = Docgen.generate ~title:(Filename.basename path) tbox in
    let contents =
      match format with
      | "markdown" | "md" -> Docgen.to_markdown document
      | "html" -> Docgen.to_html document
      | other ->
        Printf.eprintf "unknown format %s (use markdown or html)\n" other;
        exit 1
    in
    match output with
    | None -> print_string contents
    | Some out ->
      let oc = open_out out in
      output_string oc contents;
      close_out oc
  in
  let format =
    Arg.(value & opt string "markdown" & info [ "format"; "f" ] ~doc:"markdown or html.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "doc" ~doc:"Generate ontology documentation (Section 8 automation).")
    Term.(const run $ tbox_arg $ format $ output)

(* -------------------------------- diff ------------------------------- *)

let diff_cmd =
  let run prev_path next_path =
    let prev = load_tbox prev_path and next = load_tbox next_path in
    let report = Evolution.diff ~prev ~next in
    Format.printf "%a" Evolution.pp report;
    if Evolution.is_conservative report then begin
      print_endline "conservative change";
      exit 0
    end
    else exit 4
  in
  let prev_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"PREV" ~doc:"Old version.")
  in
  let next_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEXT" ~doc:"New version.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Logical diff of two ontology versions; exit 4 on semantic change.")
    Term.(const run $ prev_arg $ next_arg)

(* -------------------------------- sql -------------------------------- *)

let mappings_arg =
  Arg.(required & opt (some file) None
       & info [ "mappings"; "m" ] ~doc:"Mapping file (map HEAD <- ATOMS lines).")

let sql_cmd =
  let run path mappings_path query_text =
    let tbox = load_tbox path in
    let signature = Tbox.signature tbox in
    match
      let mappings = Obda.Qparse.parse_mappings ~signature (read_file mappings_path) in
      let q = Obda.Qparse.parse_query ~signature query_text in
      let engine =
        Obda.Engine.create ~tbox ~mappings ~database:(Obda.Database.create ()) ()
      in
      Obda.Sql.to_string (Obda.Sql.of_ucq (Obda.Engine.compile engine [ q ]))
    with
    | sql -> print_endline sql
    | exception Obda.Qparse.Parse_error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1
  in
  let query_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Query, e.g. \"x <- Employee(x)\".")
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:"Rewrite, unfold and print the SQL for a query over the sources.")
    Term.(const run $ tbox_arg $ mappings_arg $ query_arg)

(* ------------------------------- answer ------------------------------ *)

let answer_cmd =
  let run path mappings_path data_path query_text =
    let tbox = load_tbox path in
    let signature = Tbox.signature tbox in
    match
      let mappings = Obda.Qparse.parse_mappings ~signature (read_file mappings_path) in
      let db = Obda.Database.create () in
      Obda.Qparse.load_facts db (read_file data_path);
      let q = Obda.Qparse.parse_query ~signature query_text in
      let system = Obda.Engine.create ~tbox ~mappings ~database:db () in
      (Obda.Engine.certain_answers system q, Obda.Engine.consistent system)
    with
    | answers, consistent ->
      List.iter
        (fun tuple -> print_endline (String.concat ", " tuple))
        (List.sort compare answers);
      if not consistent then begin
        prerr_endline "warning: knowledge base is inconsistent";
        exit 5
      end
    | exception Obda.Qparse.Parse_error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1
  in
  let data_arg =
    Arg.(required & opt (some file) None
         & info [ "data"; "d" ] ~doc:"Fact file (rel(a, b) lines).")
  in
  let query_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc:"Query.")
  in
  Cmd.v
    (Cmd.info "answer" ~doc:"Certain answers over mapped relational data.")
    Term.(const run $ tbox_arg $ mappings_arg $ data_arg $ query_arg)

(* ------------------------------- analyze ----------------------------- *)

let analyze_cmd =
  let run path mappings_path =
    let tbox = load_tbox path in
    let signature = Tbox.signature tbox in
    match Obda.Qparse.parse_mappings ~signature (read_file mappings_path) with
    | exception Obda.Qparse.Parse_error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1
    | mappings ->
      let issues = Obda.Mapping_analysis.analyze tbox mappings in
      List.iter
        (fun issue -> Format.printf "%a@." Obda.Mapping_analysis.pp_issue issue)
        issues;
      if Obda.Mapping_analysis.errors issues <> [] then exit 6
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static mapping analysis: incoherent targets, redundancy, gaps.")
    Term.(const run $ tbox_arg $ mappings_arg)

(* -------------------------------- owl -------------------------------- *)

let export_owl_cmd =
  let run path iri output =
    let tbox = load_tbox path in
    let text = Owl2ql.to_functional ?iri tbox in
    match output with
    | None -> print_string text
    | Some out ->
      let oc = open_out out in
      output_string oc text;
      close_out oc
  in
  let iri =
    Arg.(value & opt (some string) None & info [ "iri" ] ~doc:"Ontology IRI.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "export-owl"
       ~doc:"Render the ontology in OWL 2 QL functional-style syntax.")
    Term.(const run $ tbox_arg $ iri $ output)

let import_owl_cmd =
  let run path =
    match Owl2ql.of_functional (read_file path) with
    | exception Owl2ql.Unsupported m ->
      Printf.eprintf "not in the OWL 2 QL fragment: %s\n" m;
      exit 1
    | tbox ->
      let s = Tbox.signature tbox in
      List.iter (Printf.printf "concept %s\n") (Signature.concepts s);
      List.iter (Printf.printf "role %s\n") (Signature.roles s);
      List.iter (Printf.printf "attr %s\n") (Signature.attributes s);
      List.iter
        (fun ax -> print_endline (Syntax.axiom_to_string ax))
        (Tbox.axioms tbox)
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OWL_FILE"
           ~doc:"OWL functional-syntax file (QL fragment).")
  in
  Cmd.v
    (Cmd.info "import-owl"
       ~doc:"Convert an OWL 2 QL functional-syntax file to the ASCII DL-Lite syntax.")
    Term.(const run $ file_arg)

(* -------------------------------- query ------------------------------ *)

(* Client mode: drive a running obda_server over the wire protocol.
   [--stats] fetches the versioned STATS reply through the typed client
   parser and prints one aligned `metric{labels} value` row per sample;
   [--metrics] dumps the raw Prometheus-style exposition text. *)
let query_cmd =
  let run connect retries session ontology mappings data abox bulk chunk
      prepare named stats metrics query_text =
    match Server.Client.connect ~retries connect with
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1
    | Ok conn ->
      let rpc req =
        match Server.Client.request conn req with
        | Error e ->
          Printf.eprintf "error: %s\n" e;
          exit 1
        | Ok Server.Wire.Busy ->
          prerr_endline "server busy (admission queue full); retry later";
          exit 7
        | Ok (Server.Wire.Err m) ->
          Printf.eprintf "server error: %s\n" m;
          exit 4
        | Ok (Server.Wire.Ok lines) -> lines
      in
      let load kind path =
        ignore
          (rpc
             (Server.Wire.Load
                {
                  session;
                  kind;
                  payload = Server.Wire.payload_of_text (read_file path);
                }))
      in
      Option.iter (load Server.Wire.K_tbox) ontology;
      Option.iter (load Server.Wire.K_mappings) mappings;
      Option.iter (load Server.Wire.K_abox) abox;
      Option.iter (load Server.Wire.K_facts) data;
      Option.iter
        (fun path ->
          (* streaming ingestion: negotiate protocol v2, then feed the
             file to the server chunk by chunk — the file is never
             materialized in memory on either side *)
          (match Server.Client.hello conn with
           | Error e ->
             Printf.eprintf "error: HELLO: %s\n" e;
             exit 4
           | Ok (v, _) when v < 2 ->
             Printf.eprintf
               "server error: bulk load needs protocol v2; server granted v%d\n"
               v;
             exit 4
           | Ok _ -> ());
          let ic = open_in path in
          let rec lines () =
            match input_line ic with
            | line -> Seq.Cons (line, lines)
            | exception End_of_file -> Seq.Nil
          in
          let facts = Seq.filter (fun l -> String.trim l <> "") lines in
          (match
             Server.Client.bulk_load conn ~session ~chunk_lines:chunk facts
           with
           | Error e ->
             close_in_noerr ic;
             Printf.eprintf "server error: %s\n" e;
             exit 4
           | Ok (chunks, nfacts) ->
             close_in_noerr ic;
             Printf.printf "bulk: %d chunk(s), %d fact(s)\n%!" chunks nfacts))
        bulk;
      Option.iter
        (fun (name, text) ->
          ignore (rpc (Server.Wire.Prepare { session; name; query = text })))
        prepare;
      Option.iter
        (fun name ->
          List.iter print_endline
            (rpc (Server.Wire.Ask { session; query = Server.Wire.Named name })))
        named;
      Option.iter
        (fun q ->
          List.iter print_endline
            (rpc (Server.Wire.Ask { session; query = Server.Wire.Inline q })))
        query_text;
      if stats then begin
        match Server.Client.stats conn with
        | Error e ->
          Printf.eprintf "error: %s\n" e;
          exit 4
        | Ok samples ->
          let width =
            List.fold_left (fun w (k, _) -> max w (String.length k)) 0 samples
          in
          List.iter
            (fun (key, value) ->
              Printf.printf "%-*s %s\n" width key
                (Obs.string_of_value value))
            samples;
          (* the client's own side of the story: retries, reconnects and
             failovers live in this process's registry, not the server's *)
          List.iter
            (fun s ->
              let is_client_metric =
                String.length s.Obs.name >= 12
                && String.sub s.Obs.name 0 12 = "obda_client_"
              in
              if is_client_metric then
                Printf.printf "%-*s %s\n" width s.Obs.name
                  (Obs.string_of_value s.Obs.value))
            (Obs.Registry.samples Obs.default)
      end;
      (* with a multi-endpoint --connect, also probe and print each
         member's replication state (role, epoch, fence) *)
      if stats && String.contains connect ',' then begin
        print_endline "== endpoints ==";
        List.iter
          (fun st ->
            match st.Server.Client.es_error with
            | Some e ->
              Printf.printf "%s unreachable (%s)\n" st.Server.Client.es_endpoint
                e
            | None ->
              Printf.printf "%s %s epoch=%d fence=%d%s\n"
                st.Server.Client.es_endpoint
                (Option.value st.Server.Client.es_role ~default:"?")
                st.Server.Client.es_epoch st.Server.Client.es_fence
                (if st.Server.Client.es_fenced then " fenced" else ""))
          (Server.Client.endpoint_states conn)
      end;
      if metrics then
        List.iter print_endline (rpc Server.Wire.Metrics);
      ignore (rpc Server.Wire.Quit);
      Server.Client.close conn
  in
  let connect_arg =
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"ENDPOINT"
             ~doc:"Server endpoint: unix:/path.sock or tcp:HOST:PORT. A \
                   comma-separated list makes the client failover-aware: \
                   writes chase the cluster primary, re-resolving it after \
                   a promotion.")
  in
  let retries_arg =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a failed or shed request up to N times with \
                   jittered exponential backoff, reconnecting as needed \
                   (all wire verbs are idempotent).")
  in
  let session_arg =
    Arg.(value & opt string "default"
         & info [ "session" ] ~docv:"NAME" ~doc:"Server-side session name.")
  in
  let ontology_arg =
    Arg.(value & opt (some file) None
         & info [ "ontology"; "T" ] ~doc:"Load this ontology into the session.")
  in
  let mappings_opt_arg =
    Arg.(value & opt (some file) None
         & info [ "mappings"; "m" ] ~doc:"Load this mapping file into the session.")
  in
  let data_arg =
    Arg.(value & opt (some file) None
         & info [ "data"; "d" ] ~doc:"Load raw database facts into the session.")
  in
  let abox_arg =
    Arg.(value & opt (some file) None
         & info [ "abox"; "a" ] ~doc:"Load ontology-level facts into the session.")
  in
  let bulk_arg =
    Arg.(value & opt (some file) None
         & info [ "bulk" ] ~docv:"FILE"
             ~doc:"Stream raw database facts from FILE via the v2 LOAD BULK \
                   verb: the file is sent in atomic chunks (see --chunk) \
                   without being held in memory.")
  in
  let chunk_arg =
    Arg.(value & opt int 1000
         & info [ "chunk" ] ~docv:"N"
             ~doc:"Lines per BULK chunk (with --bulk); each chunk is \
                   validated, logged and applied atomically.")
  in
  let prepare_arg =
    Arg.(value & opt (some (pair ~sep:'=' string string)) None
         & info [ "prepare" ] ~docv:"NAME=QUERY"
             ~doc:"Register a prepared query under NAME.")
  in
  let named_arg =
    Arg.(value & opt (some string) None
         & info [ "ask" ] ~docv:"NAME" ~doc:"Ask a previously prepared query.")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print the server's versioned STATS samples (caches, \
                   per-op and per-phase latencies, sessions).")
  in
  let metrics_arg =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Dump the server's metrics in Prometheus text exposition \
                   format.")
  in
  let query_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"Query.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Query a running obda_server over the wire protocol.")
    Term.(
      const run $ connect_arg $ retries_arg $ session_arg $ ontology_arg
      $ mappings_opt_arg $ data_arg $ abox_arg $ bulk_arg $ chunk_arg
      $ prepare_arg $ named_arg $ stats_arg $ metrics_arg $ query_arg)

let () =
  let info = Cmd.info "obda_cli" ~doc:"DL-Lite / OBDA toolkit." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            classify_cmd;
            taxonomy_cmd;
            unsat_cmd;
            implies_cmd;
            rewrite_cmd;
            render_cmd;
            modularize_cmd;
            generate_cmd;
            doc_cmd;
            diff_cmd;
            sql_cmd;
            answer_cmd;
            analyze_cmd;
            query_cmd;
            export_owl_cmd;
            import_owl_cmd;
          ]))
