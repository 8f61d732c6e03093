(** A blocking wire-protocol client, shared by [obda_cli query
    --connect], the serve benchmark's closed loop, the transcript tests
    and the chaos harness.  One request in flight per connection — the
    protocol has no multiplexing, by design.

    Resilience: [connect ~retries:n] turns {!request} into a retrying
    call — a dead connection (refused dial, mid-request hangup,
    truncated reply) or a [BUSY] shed is retried up to [n] times with
    jittered exponential backoff, re-establishing the connection as
    needed.  Every wire verb is idempotent (loads are set-semantics
    inserts or whole-value swaps, PREPARE is a replace, reads are
    reads), so a request whose first attempt was applied but whose
    reply was lost re-applies to the same state.  The default
    [retries = 0] is the historical single-attempt behaviour.  Retries
    and reconnections are counted as [obda_client_retries_total] /
    [obda_client_reconnects_total].

    Failover: [connect "a.sock,b.sock"] makes the client
    cluster-aware.  Mutations are routed to the member currently
    believed primary; a ["read-only replica"] refusal or a dead
    connection triggers a primary re-resolution ([REPL STATUS] probe
    across members) under the same backoff schedule, counted as
    [obda_client_failovers_total].  Reads rotate away from dead
    members but otherwise stay where they are — replicas serve them. *)

type conn = {
  fd : Unix.file_descr;
  reader : Durable.Io.reader;
}

type t = {
  mutable endpoints : string array;  (** ≥ 1; [active] indexes into it *)
  mutable active : int;
  mutable primary : int option;
      (** endpoint believed to be the cluster primary; [None] until a
          write is redirected or a probe resolves one *)
  mutable hello_version : int option;
      (** re-negotiated on every fresh dial once {!hello} has run — a
          failover mid-BULK must not silently drop back to v1 *)
  retries : int;
  base_delay : float;
  max_delay : float;
  jitter : float;        (** relative: 0.25 = +/-25% of the delay *)
  m_retries : Obs.Counter.t;
  m_reconnects : Obs.Counter.t;
  m_failovers : Obs.Counter.t;
  mutable conn : conn option;
}

let endpoint t = t.endpoints.(t.active)

(** Endpoint syntax accepted by [connect]:
    - ["unix:/path/to.sock"]
    - ["tcp:HOST:PORT"]
    - ["HOST:PORT"] (tcp) or a bare path containing ['/'] (unix). *)
let parse_endpoint spec =
  match String.index_opt spec ':' with
  | Some i when String.sub spec 0 i = "unix" ->
    Result.Ok (Unix.ADDR_UNIX (String.sub spec (i + 1) (String.length spec - i - 1)))
  | _ -> (
    let host_port hp =
      match String.rindex_opt hp ':' with
      | None -> Result.Error (Printf.sprintf "bad endpoint %S (want HOST:PORT)" hp)
      | Some i -> (
        let host = String.sub hp 0 i in
        let port = String.sub hp (i + 1) (String.length hp - i - 1) in
        match int_of_string_opt port with
        | None -> Result.Error ("bad port in endpoint: " ^ hp)
        | Some port -> (
          match
            try Unix.inet_addr_of_string host
            with Failure _ ->
              (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with
          | addr -> Result.Ok (Unix.ADDR_INET (addr, port))
          | exception Not_found -> Result.Error ("unknown host: " ^ host)))
    in
    if String.length spec >= 4 && String.sub spec 0 4 = "tcp:" then
      host_port (String.sub spec 4 (String.length spec - 4))
    else if String.contains spec '/' then Result.Ok (Unix.ADDR_UNIX spec)
    else host_port spec)

let dial spec =
  match parse_endpoint spec with
  | Result.Error _ as e -> e
  | Result.Ok addr -> (
    let domain = Unix.domain_of_sockaddr addr in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Result.Ok { fd; reader = Durable.Io.reader fd }
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Result.Error
        (Printf.sprintf "connect %s: %s" spec (Unix.error_message e)))

(** [connect spec] — dial one endpoint, or a comma-separated list of
    them ("a.sock,b.sock,tcp:host:port").  With several endpoints the
    client becomes failover-aware: writes chase the cluster primary
    (re-resolved by probing [REPL STATUS] after a redirect or a dead
    connection), reads stick to the current endpoint and rotate away
    from a dead one.  The first endpoint that accepts the dial becomes
    the initial active one. *)
let connect ?(retries = 0) ?(base_delay = 0.05) ?(max_delay = 2.0)
    ?(jitter = 0.25) ?(registry = Obs.default) spec =
  let endpoints =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> Array.of_list
  in
  if Array.length endpoints = 0 then Result.Error "empty endpoint spec"
  else
    let mk active conn =
      {
        endpoints;
        active;
        primary = None;
        hello_version = None;
        retries;
        base_delay;
        max_delay;
        jitter;
        m_retries = Obs.Registry.counter registry "obda_client_retries_total";
        m_reconnects =
          Obs.Registry.counter registry "obda_client_reconnects_total";
        m_failovers =
          Obs.Registry.counter registry "obda_client_failovers_total";
        conn;
      }
    in
    let rec try_dial i last_err =
      if i >= Array.length endpoints then Result.Error last_err
      else
        match dial endpoints.(i) with
        | Result.Ok conn -> Result.Ok (mk i (Some conn))
        | Result.Error e ->
          if Array.length endpoints > 1 then
            (* failover clients tolerate a dead member at connect time *)
            try_dial (i + 1) e
          else Result.Error e
    in
    try_dial 0 "no endpoints"

let drop_conn t =
  match t.conn with
  | None -> ()
  | Some c ->
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conn <- None

let close t = drop_conn t

(* -------------------------- one raw exchange ------------------------- *)

let send_conn conn lines =
  let text = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  match Durable.Io.write_string conn.fd text with
  | () -> Result.Ok ()
  | exception Unix.Unix_error (e, fn, _) ->
    Result.Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let max_reply_line = 1 lsl 20

let read_reply_conn conn =
  match Durable.Io.read_line conn.reader ~max_line:max_reply_line with
  | None -> Result.Error "connection closed by server"
  | exception Unix.Unix_error (e, fn, _) ->
    Result.Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | Some header -> (
    match Wire.parse_reply_header header with
    | Result.Error _ as e -> e
    | Result.Ok `Busy -> Result.Ok Wire.Busy
    | Result.Ok (`Err m) -> Result.Ok (Wire.Err m)
    | Result.Ok (`Ok n) -> (
      let rec collect k acc =
        if k = 0 then Result.Ok (Wire.Ok (List.rev acc))
        else
          match Durable.Io.read_line conn.reader ~max_line:max_reply_line with
          | None -> Result.Error "truncated reply payload"
          | Some line -> collect (k - 1) (line :: acc)
      in
      collect n []))

(* one blocking request/reply on a raw connection, bypassing the retry
   machinery — used for HELLO replay and endpoint probing *)
let exchange_conn conn req =
  match send_conn conn (Wire.encode_request req) with
  | Result.Error _ as e -> e
  | Result.Ok () -> read_reply_conn conn

(* re-establish after a drop; counted — the initial dial is not.  A
   fresh connection starts at protocol v1, so once [hello] has
   negotiated a version we replay the handshake here: a reconnect (or a
   failover) must not silently downgrade the stream mid-BULK. *)
let ensure_conn t =
  match t.conn with
  | Some c -> Result.Ok c
  | None -> (
    match dial (endpoint t) with
    | Result.Error _ as e -> e
    | Result.Ok c -> (
      Obs.Counter.incr t.m_reconnects;
      let renegotiated =
        match t.hello_version with
        | None -> Result.Ok ()
        | Some v -> (
          match exchange_conn c (Wire.Hello v) with
          | Result.Ok (Wire.Ok _) -> Result.Ok ()
          | Result.Ok (Wire.Err m) -> Result.Error ("HELLO replay: " ^ m)
          | Result.Ok Wire.Busy -> Result.Error "HELLO replay: server busy"
          | Result.Error _ as e -> e)
      in
      match renegotiated with
      | Result.Ok () ->
        t.conn <- Some c;
        Result.Ok c
      | Result.Error _ as e ->
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        e))

(* ------------------------- failover routing ------------------------- *)

(** Probed view of one endpoint, for routing and for
    [obda_cli query --stats]. *)
type endpoint_state = {
  es_endpoint : string;
  es_role : string option;  (** "primary" / "replica", [None] if down *)
  es_epoch : int;
  es_fence : int;
  es_fenced : bool;
      (** an ex-primary refusing writes: a higher epoch exists
          elsewhere — never a promotion candidate, never a write
          target *)
  es_error : string option;
}

(* one-shot probe over a throwaway connection: HELLO 3 + REPL STATUS.
   The status payload is a single line of [k=v] pairs
   (role/epoch/fence/primary). *)
let probe_endpoint spec =
  match dial spec with
  | Result.Error e ->
    { es_endpoint = spec; es_role = None; es_epoch = -1; es_fence = -1;
      es_fenced = false; es_error = Some e }
  | Result.Ok conn ->
    Fun.protect
      ~finally:(fun () ->
        try Unix.close conn.fd with Unix.Unix_error _ -> ())
      (fun () ->
        let status =
          match exchange_conn conn (Wire.Hello 3) with
          | Result.Error _ as e -> e
          | Result.Ok (Wire.Err m) -> Result.Error ("HELLO: " ^ m)
          | Result.Ok Wire.Busy -> Result.Error "server busy"
          | Result.Ok (Wire.Ok _) -> (
            match exchange_conn conn Wire.Repl_status with
            | Result.Error _ as e -> e
            | Result.Ok (Wire.Ok [ line ]) -> Result.Ok line
            | Result.Ok (Wire.Err m) -> Result.Error m
            | Result.Ok Wire.Busy -> Result.Error "server busy"
            | Result.Ok (Wire.Ok _) -> Result.Error "malformed STATUS reply")
        in
        match status with
        | Result.Error e ->
          { es_endpoint = spec; es_role = None; es_epoch = -1; es_fence = -1;
            es_fenced = false; es_error = Some e }
        | Result.Ok line ->
          let kv =
            String.split_on_char ' ' line
            |> List.filter_map (fun tok ->
                   match String.index_opt tok '=' with
                   | None -> None
                   | Some i ->
                     Some
                       ( String.sub tok 0 i,
                         String.sub tok (i + 1) (String.length tok - i - 1) ))
          in
          let find k = List.assoc_opt k kv in
          let int_of k =
            match find k with
            | None -> -1
            | Some v -> Option.value (int_of_string_opt v) ~default:(-1)
          in
          { es_endpoint = spec;
            es_role = find "role";
            es_epoch = int_of "epoch";
            es_fence = int_of "fence";
            es_fenced = find "fenced" <> None;
            es_error = None })

(** [endpoint_states t] — probe every configured endpoint; surfaced by
    [obda_cli query --stats]. *)
let endpoint_states t =
  Array.to_list (Array.map probe_endpoint t.endpoints)

let switch_to t i =
  if i <> t.active then begin
    drop_conn t;
    t.active <- i;
    Obs.Counter.incr t.m_failovers
  end

let index_of_endpoint t spec =
  let n = Array.length t.endpoints in
  let rec go i = if i >= n then None
    else if t.endpoints.(i) = spec then Some i else go (i + 1) in
  go 0

(* a "read-only replica; primary is <ep>" refusal names the place to go;
   learn endpoints we were not configured with *)
let note_primary_hint t msg =
  let marker = "primary is " in
  match
    let ml = String.length marker in
    let rec find i =
      if i + ml > String.length msg then None
      else if String.sub msg i ml = marker then Some (i + ml)
      else find (i + 1)
    in
    find 0
  with
  | None -> ()
  | Some start ->
    let ep = String.trim (String.sub msg start (String.length msg - start)) in
    if ep <> "" then (
      (match index_of_endpoint t ep with
       | Some _ -> ()
       | None -> t.endpoints <- Array.append t.endpoints [| ep |]);
      t.primary <- index_of_endpoint t ep)

(** [find_primary members] probes every member and returns the unfenced
    [role=primary] one with the highest epoch, the first in member order
    on a tie; [None] if none answers as primary (mid-promotion: the
    caller backs off and asks again).  A fenced ex-primary still
    advertises [role=primary] but refuses every write. *)
let find_primary members =
  List.fold_left
    (fun best ep ->
      let st = probe_endpoint ep in
      if st.es_role <> Some "primary" || st.es_fenced then best
      else
        match best with
        | Some (_, e) when e >= st.es_epoch -> best
        | _ -> Some (ep, st.es_epoch))
    None members
  |> Option.map fst

(* point [active] at the primary; no-op if none answers as primary *)
let resolve_primary t =
  match
    Option.bind (find_primary (Array.to_list t.endpoints)) (index_of_endpoint t)
  with
  | None -> ()
  | Some i ->
    t.primary <- Some i;
    switch_to t i

(* raw access on the current connection (no retry) — the transcript
   tests speak malformed protocol through these on purpose *)

let send_lines t lines =
  match ensure_conn t with
  | Result.Error e -> raise (Sys_error e)
  | Result.Ok conn -> (
    match send_conn conn lines with
    | Result.Ok () -> ()
    | Result.Error e -> raise (Sys_error e))

let read_reply t =
  match t.conn with
  | None -> Result.Error "not connected"
  | Some conn -> read_reply_conn conn

(* ------------------------------ retries ------------------------------ *)

(** Jittered exponential backoff, shared by the retry loop below, the
    failover path and the replication subscriber's reconnect loop. *)
let backoff ~base_delay ~max_delay ~jitter attempt =
  let d = Float.min max_delay (base_delay *. (2. ** float_of_int attempt)) in
  let r = (Random.float 2.0 -. 1.0) *. jitter in
  Float.max 0.0 (d *. (1. +. r))

let backoff_delay t attempt =
  backoff ~base_delay:t.base_delay ~max_delay:t.max_delay ~jitter:t.jitter
    attempt

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(** [request t req] — send one request, read one reply; with
    [retries > 0], transparently retries transport failures and [BUSY]
    sheds, reconnecting as needed.  With several endpoints the same
    retry budget also drives failover: a mutation refused with
    {!Service.read_only_prefix} (or sent into a dead connection)
    re-resolves the cluster primary via [REPL STATUS] probes and is
    retried there, under the same jittered backoff; a read on a dead
    endpoint rotates to the next member. *)
let request t req =
  let lines = Wire.encode_request req in
  let is_write = Service.is_mutation req in
  let multi = Array.length t.endpoints > 1 in
  let rec attempt n =
    (* writes chase the known primary before spending an attempt *)
    (match (is_write, t.primary) with
     | true, Some i when i <> t.active -> switch_to t i
     | _ -> ());
    let outcome =
      match ensure_conn t with
      | Result.Error _ as e -> e
      | Result.Ok conn -> (
        match send_conn conn lines with
        | Result.Error _ as e -> e
        | Result.Ok () -> read_reply_conn conn)
    in
    let retry () =
      Obs.Counter.incr t.m_retries;
      Thread.delay (backoff_delay t n);
      attempt (n + 1)
    in
    match outcome with
    | Result.Ok Wire.Busy when n < t.retries ->
      (* shed by admission control: the connection is fine, just wait *)
      retry ()
    | Result.Ok (Wire.Err m)
      when is_write
           && starts_with ~prefix:Service.read_only_prefix m
           && n < t.retries ->
      (* redirected: this member is (now) a replica *)
      t.primary <- None;
      note_primary_hint t m;
      (match t.primary with
       | Some i when i <> t.active -> switch_to t i
       | Some _ -> ()
       | None ->
         Obs.Counter.incr t.m_failovers;
         drop_conn t;
         resolve_primary t);
      retry ()
    | Result.Ok _ as reply -> reply
    | Result.Error _ when n < t.retries ->
      drop_conn t;
      if multi then
        if is_write then begin
          t.primary <- None;
          resolve_primary t
        end
        else switch_to t ((t.active + 1) mod Array.length t.endpoints);
      retry ()
    | Result.Error _ as e -> e
  in
  attempt 0

(* ------------------------- typed stats access ------------------------ *)

let ok_payload = function
  | Result.Error _ as e -> e
  | Result.Ok Wire.Busy -> Result.Error "server busy"
  | Result.Ok (Wire.Err m) -> Result.Error m
  | Result.Ok (Wire.Ok lines) -> Result.Ok lines

(* one [<metric> <labels> <value>] line of the v2 schema *)
let parse_sample line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ name; labels; value ] -> (
    match float_of_string_opt value with
    | None -> Result.Error (Printf.sprintf "bad stats value in %S" line)
    | Some v ->
      let key = if labels = "-" then name else name ^ "{" ^ labels ^ "}" in
      Result.Ok (key, v))
  | _ -> Result.Error (Printf.sprintf "bad stats line %S" line)

(** [stats ?session t] — issue [STATS] and parse the versioned reply
    into [(key, value)] pairs, where a labelled metric's key is
    [name{k=v,...}] and an unlabelled one's is just [name].  Fails on a
    schema version other than [stats.version 2] — the caller is typed
    against this vocabulary. *)
let stats ?session t =
  match ok_payload (request t (Wire.Stats session)) with
  | Result.Error _ as e -> e
  | Result.Ok [] -> Result.Error "empty STATS reply"
  | Result.Ok (version :: rest) ->
    if version <> Printf.sprintf "stats.version %d" Service.stats_version then
      Result.Error ("unsupported stats schema: " ^ version)
    else
      let rec go acc = function
        | [] -> Result.Ok (List.rev acc)
        | line :: rest -> (
          match parse_sample line with
          | Result.Error _ as e -> e
          | Result.Ok kv -> go (kv :: acc) rest)
      in
      go [] rest

(** [metrics t] — the Prometheus-style text exposition, as lines. *)
let metrics t = ok_payload (request t Wire.Metrics)

(* --------------------------- protocol v2 ----------------------------- *)

(** [hello ?version t] — negotiate the connection's protocol version.
    Returns [(granted, capabilities)]; the server grants
    [min version its-max].  Bulk ingestion requires a granted version
    ≥ 2 (capability ["bulk"]). *)
let hello ?(version = Wire.max_version) t =
  t.hello_version <- Some version;
  match ok_payload (request t (Wire.Hello version)) with
  | Result.Error _ as e -> e
  | Result.Ok [ line ] -> (
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | v :: caps
      when String.length v >= 2
           && v.[0] = 'v'
           && int_of_string_opt (String.sub v 1 (String.length v - 1)) <> None
      ->
      Result.Ok
        (int_of_string (String.sub v 1 (String.length v - 1)), caps)
    | _ -> Result.Error ("malformed HELLO reply: " ^ line))
  | Result.Ok _ -> Result.Error "malformed HELLO reply"

(** [bulk_load t ~session ?chunk_lines lines] — stream a fact load in
    atomic chunks of [chunk_lines] without materializing the whole
    payload, then close the stream with [BULK END].  The input is
    consumed lazily, so a file can be streamed line by line.  Returns
    [(chunks, facts)] as acknowledged by END.  On a rejected chunk the
    stream is ABORTed and the error reports how many chunks were
    already acked — those are durable and stay (atomicity is per
    chunk).  Chunk requests are set-semantics inserts, so the
    connection's retry policy applies to them safely. *)
let bulk_load t ~session ?(chunk_lines = 1000) (lines : string Seq.t) =
  let chunk_lines = max 1 chunk_lines in
  let send_chunk chunk =
    ok_payload (request t (Wire.Bulk_chunk { session; payload = chunk }))
  in
  let abort () = ignore (request t (Wire.Bulk_abort { session })) in
  let rec take k acc seq =
    if k = 0 then (List.rev acc, seq)
    else
      match Seq.uncons seq with
      | None -> (List.rev acc, Seq.empty)
      | Some (line, rest) -> take (k - 1) (line :: acc) rest
  in
  let rec stream acked seq =
    match take chunk_lines [] seq with
    | [], _ -> (
      match ok_payload (request t (Wire.Bulk_end { session })) with
      | Result.Error _ as e -> e
      | Result.Ok [ summary ] -> (
        match
          String.split_on_char ' ' summary |> List.filter (fun s -> s <> "")
        with
        | [ "chunks"; c; "facts"; f ] -> (
          match (int_of_string_opt c, int_of_string_opt f) with
          | Some c, Some f -> Result.Ok (c, f)
          | _ -> Result.Error ("malformed END summary: " ^ summary))
        | _ -> Result.Error ("malformed END summary: " ^ summary))
      | Result.Ok _ -> Result.Error "malformed END reply")
    | chunk, rest -> (
      match send_chunk chunk with
      | Result.Ok _ -> stream (acked + 1) rest
      | Result.Error e ->
        abort ();
        Result.Error
          (Printf.sprintf "chunk %d rejected (%d chunk(s) acked): %s"
             (acked + 1) acked e))
  in
  stream 0 lines
