(* Golden-transcript test of the wire protocol against a real loopback
   server: a scripted client session — happy path, malformed commands,
   an oversized query line, a BUSY shed and a request timeout forced
   deterministically through Executor.pause — whose full request/reply
   log is diffed against transcript.expected under `dune runtest`.

   Determinism notes: the server runs one worker with a queue bound of
   one, the executor is paused around the BUSY/timeout steps, and the
   only timing-dependent output (STATS latency fields) is redacted
   token-wise. *)

let sock_path =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "obda-transcript-%d.sock" (Unix.getpid ()))

(* v2 stats lines are "<metric> <labels> <value>"; any value derived
   from wall-clock time (the *_seconds histograms' sum/max/quantiles)
   is redacted — the metric name and its label set are the contract,
   the number is not.  Observation *counts* are deterministic under the
   scripted session and stay. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let redact line =
  match String.split_on_char ' ' line with
  | [ name; labels; _value ]
    when contains name "seconds" && not (String.ends_with ~suffix:"_count" name)
    ->
    String.concat " " [ name; labels; "*" ]
  | _ -> line

let show_reply = function
  | Server.Wire.Busy -> [ "BUSY" ]
  | Server.Wire.Err e -> [ "ERR " ^ e ]
  | Server.Wire.Ok lines -> Printf.sprintf "OK %d" (List.length lines) :: lines

let print_reply = function
  | Result.Error e -> Printf.printf "!!! %s\n" e
  | Result.Ok reply ->
    List.iter (fun l -> Printf.printf "<<< %s\n" (redact l)) (show_reply reply)

let step conn request =
  List.iter (Printf.printf ">>> %s\n") (Server.Wire.encode_request request);
  print_reply (Server.Client.request conn request)

(* a raw send, for bytes the typed encoder would never produce *)
let raw_step conn ~show lines =
  List.iter (Printf.printf ">>> %s\n") show;
  Server.Client.send_lines conn lines;
  print_reply (Server.Client.read_reply conn)

let () =
  let service = Server.Service.create ~config:{ Server.Service.Config.default with lru = 16 } () in
  let config =
    {
      Server.Serve.workers = 1;
      queue_capacity = 1;
      request_timeout_s = 0.5;
      limits = { Server.Wire.max_line = 200; max_payload_lines = 50 };
    }
  in
  let srv = Server.Serve.create ~config service in
  ignore (Server.Serve.listen_unix srv sock_path);
  Server.Serve.start srv;
  print_endline "--- server up (1 worker, queue bound 1, 0.5s timeout)";
  let conn =
    match Server.Client.connect ("unix:" ^ sock_path) with
    | Result.Ok c -> c
    | Result.Error e -> failwith e
  in

  (* happy path *)
  step conn
    (Server.Wire.Load
       {
         session = "s";
         kind = Server.Wire.K_tbox;
         payload =
           [ "role worksFor"; "Manager [= Employee"; "Employee [= Person" ];
       });
  step conn
    (Server.Wire.Load
       {
         session = "s";
         kind = Server.Wire.K_abox;
         payload = [ "Manager(ada)"; "Employee(bob)" ];
       });
  step conn
    (Server.Wire.Prepare { session = "s"; name = "people"; query = "x <- Person(x)" });
  step conn (Server.Wire.Ask { session = "s"; query = Server.Wire.Named "people" });
  step conn
    (Server.Wire.Ask { session = "s"; query = Server.Wire.Inline "x <- Manager(x)" });
  step conn (Server.Wire.Classify { session = "s" });

  (* protocol abuse: unknown verb, bad LOAD kind, an over-long line *)
  raw_step conn ~show:[ "FROBNICATE the server" ] [ "FROBNICATE the server" ];
  raw_step conn ~show:[ "LOAD s JUNK 1" ] [ "LOAD s JUNK 1" ];
  let oversized = "ASK s ? x <- " ^ String.concat ", "
      (List.init 40 (fun i -> Printf.sprintf "Person(x%d)" i))
  in
  raw_step conn
    ~show:[ Printf.sprintf "<oversized ASK line, %d bytes>" (String.length oversized) ]
    [ oversized ];

  (* stats, latency fields redacted *)
  step conn (Server.Wire.Stats (Some "s"));

  (* deterministic BUSY + timeout: pause the executor, let a second
     client fill the only queue slot, then watch this client get shed *)
  print_endline "--- executor paused";
  Parallel.Executor.pause (Server.Serve.executor srv);
  let conn2 =
    match Server.Client.connect ("unix:" ^ sock_path) with
    | Result.Ok c -> c
    | Result.Error e -> failwith e
  in
  Server.Client.send_lines conn2
    (Server.Wire.encode_request
       (Server.Wire.Ask { session = "s"; query = Server.Wire.Named "people" }));
  print_endline "--- second client queued ASK (fills the queue slot)";
  Unix.sleepf 0.2;
  step conn (Server.Wire.Ask { session = "s"; query = Server.Wire.Named "people" });
  print_endline "--- second client's queued request times out while paused";
  print_reply (Server.Client.read_reply conn2);
  print_endline "--- executor resumed";
  Parallel.Executor.resume (Server.Serve.executor srv);
  Parallel.Executor.drain (Server.Serve.executor srv);
  step conn (Server.Wire.Ask { session = "s"; query = Server.Wire.Named "people" });

  (* protocol v2: BULK is refused on a v1 connection, negotiated in by
     HELLO, and then streams chunk-atomic fact loads *)
  print_endline "--- protocol v2: HELLO + BULK";
  step conn
    (Server.Wire.Bulk_chunk { session = "s"; payload = [ "c$Manager(\"carol\")" ] });
  step conn (Server.Wire.Hello 2);
  step conn
    (Server.Wire.Bulk_chunk
       { session = "s"; payload = [ "c$Manager(\"carol\")"; "c$Employee(\"dan\")" ] });
  (* a malformed line rejects exactly its own chunk; the stream lives on *)
  step conn
    (Server.Wire.Bulk_chunk { session = "s"; payload = [ "this is not a fact" ] });
  step conn
    (Server.Wire.Bulk_chunk { session = "s"; payload = [ "c$Manager(\"erin\")" ] });
  step conn (Server.Wire.Bulk_end { session = "s" });
  (* ABORT after END: nothing in flight, acknowledged as a no-op *)
  step conn (Server.Wire.Bulk_abort { session = "s" });
  step conn
    (Server.Wire.Ask { session = "s"; query = Server.Wire.Inline "x <- Manager(x)" });
  (* a later HELLO can only be granted what the server speaks *)
  step conn (Server.Wire.Hello 99);

  step conn Server.Wire.Quit;
  Server.Client.close conn;
  (match Server.Client.request conn2 Server.Wire.Quit with
   | Result.Ok _ | Result.Error _ -> ());
  Server.Client.close conn2;
  (* the clients see QUIT answered before the executor retires its task:
     wait for quiescence so the in-flight count below is deterministic *)
  Parallel.Executor.drain (Server.Serve.executor srv);
  let drained = Server.Serve.stop srv in
  Printf.printf "--- server stopped gracefully, drained %d in-flight\n" drained;
  (try Unix.unlink sock_path with Unix.Unix_error _ -> ())
