(** Cluster membership and epoch-numbered promotion.

    A {!Node} wraps one server process's replication identity: its
    advertised endpoint, the member list, its persisted {e epoch}, and
    either a {!Replicate.Hub} (primary) or a {!Replicate.Subscriber}
    (replica).  The epoch is the fencing token: promotion bumps it,
    every replicated record carries it, and a primary that learns of a
    higher epoch refuses all further writes — so a partitioned
    ex-primary can accept no mutation the new timeline would miss.

    The epoch is persisted (temp + rename + dir fsync) {e before} a
    promotion takes effect: a node that crashes right after promising a
    new epoch comes back remembering the promise.  Fencing is persisted
    the same way (a [fenced] marker file written before the in-memory
    fence engages): a fenced ex-primary that crashes restarts fenced,
    and only a promotion to a higher epoch clears the marker. *)

module Store = Durable.Store
module Io = Durable.Io
module Wire = Server.Wire
module Service = Server.Service
module Serve = Server.Serve
module Client = Server.Client

let log_src = Logs.Src.create "cluster.node" ~doc:"cluster membership + promotion"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* --------------------------- epoch on disk --------------------------- *)

let epoch_path dir = Filename.concat dir "epoch"

let load_epoch dir = Option.value (Io.read_int_file (epoch_path dir)) ~default:0

let persist_epoch dir epoch =
  Io.write_int_file ~failpoint:"cluster.epoch.persist" (epoch_path dir) epoch

(* The fence marker: while this file exists (and names an epoch >= the
   persisted one) the node's primary role is poisoned — a higher epoch
   was seen and no promotion has superseded it.  Persisted so a fenced
   ex-primary that crashes restarts fenced, not as a write-accepting
   primary of a dead timeline (a split-brain window until some peer
   happened to re-fence it). *)
let fenced_path dir = Filename.concat dir "fenced"

let load_fenced dir = Io.read_int_file (fenced_path dir)

let persist_fenced dir epoch = Io.write_int_file (fenced_path dir) epoch

let clear_fenced dir =
  match Unix.unlink (fenced_path dir) with
  | () -> Io.fsync_dir dir
  | exception Unix.Unix_error _ -> ()

(* -------------------------------- node ------------------------------- *)

type role_spec =
  | Primary
  | Replica_of of string  (** seed endpoint of the primary to follow *)

type t = {
  service : Service.t;
  store : Store.t;
  endpoint : string;  (** advertised self endpoint ("" when unknown) *)
  members : string list;  (** every cluster endpoint, self included *)
  dir : string;
  registry : Obs.registry;
  mu : Mutex.t;
  mutable epoch : int;
  mutable hub : Replicate.Hub.t option;
  mutable sub : Replicate.Subscriber.t option;
  mutable following : string;  (** current upstream endpoint, or "" *)
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let epoch t = locked t (fun () -> t.epoch)

let adopt_epoch t e =
  locked t (fun () ->
      if e > t.epoch then begin
        persist_epoch t.dir e;
        t.epoch <- e;
        Log.info (fun f -> f "adopted epoch %d" e)
      end)

(* the hub's [on_fence]: marker first, then epoch — a crash between the
   two restarts fenced at the old epoch (safe), never unfenced at the
   new one (two write-accepting primaries of the same epoch).  Called
   from hub threads outside both locks. *)
let note_fenced t e =
  persist_fenced t.dir e;
  adopt_epoch t e

(* hub + service hooks for the primary role; caller holds [t.mu] *)
let become_primary_locked t =
  let hub =
    Replicate.Hub.create ~registry:t.registry ~epoch:(fun () -> t.epoch)
      ~on_fence:(note_fenced t) t.store
  in
  t.hub <- Some hub;
  t.following <- "";
  Service.set_role t.service Service.Primary;
  Service.set_repl_hooks t.service
    (Some
       {
         Service.gate = Replicate.Hub.gate hub;
         barrier = Replicate.Hub.wait_replicated hub;
       })

let become_replica_locked t ~seed =
  let members =
    List.sort_uniq compare
      (List.filter (fun e -> e <> "") (seed :: t.members))
  in
  t.following <- seed;
  Service.set_role t.service (Service.Replica { primary = seed });
  Service.set_repl_hooks t.service None;
  let sub =
    Replicate.Subscriber.start ~registry:t.registry ~service:t.service
      ~store:t.store ~members ~self:t.endpoint
      ~epoch:(fun () -> epoch t)
      ~adopt_epoch:(fun e -> adopt_epoch t e)
      ~on_primary:(fun ep ->
        t.following <- ep;
        Service.set_role t.service (Service.Replica { primary = ep }))
      ()
  in
  t.sub <- Some sub

let create ?(registry = Obs.default) ~service ~store ~endpoint ~members ~role ()
    =
  let dir = Store.dir store in
  let t =
    {
      service;
      store;
      endpoint;
      members;
      dir;
      registry;
      mu = Mutex.create ();
      epoch = load_epoch dir;
      hub = None;
      sub = None;
      following = "";
    }
  in
  locked t (fun () ->
      match role with
      | Primary -> become_primary_locked t
      | Replica_of seed -> become_replica_locked t ~seed);
  (* a primary restarting with a live fence marker was fenced and never
     re-promoted: come back fenced.  A marker below the persisted epoch
     was superseded by a later promotion (crash between epoch persist
     and marker removal) — discard it. *)
  (match role with
   | Replica_of _ -> ()
   | Primary -> (
     match load_fenced dir with
     | Some e when e >= t.epoch -> (
       match locked t (fun () -> t.hub) with
       | Some hub -> Replicate.Hub.fence_off hub ~epoch:e
       | None -> ())
     | Some _ -> clear_fenced dir
     | None -> ()));
  t

(* ------------------------------- verbs ------------------------------- *)

(** The [REPL STATUS] reply: one line of [k=v] pairs — what the failover
    client and [promote_best] probe. *)
let status t =
  locked t (fun () ->
      let role, extra =
        match t.hub with
        | Some hub ->
          let acked, subs = Replicate.Hub.ack_state hub in
          let fenced =
            match Replicate.Hub.fenced_at hub with
            | None -> ""
            | Some e -> Printf.sprintf " fenced=%d" e
          in
          ("primary", Printf.sprintf " subscribers=%d acked=%d%s" subs acked fenced)
        | None -> ("replica", "")
      in
      let upstream = if t.following = "" then "-" else t.following in
      Wire.Ok
        [
          Printf.sprintf "role=%s epoch=%d fence=%d primary=%s%s" role t.epoch
            (Store.last_seq t.store) upstream extra;
        ])

(** [promote t ~epoch] — flip this node to primary under [epoch].
    Refused unless [epoch] beats the persisted one (a promotion racing a
    newer promotion loses) — and checked {e before} the subscriber is
    severed, so a stale promotion cannot cost a live replica its
    subscription.  On success the subscriber is severed before the
    epoch is persisted and the hub installed, so no record of the old
    timeline can slip in after the flip; re-promoting a fenced
    ex-primary clears the now-superseded fence, or its gate would keep
    refusing every write of the very timeline it now leads. *)
let promote t ~epoch =
  let stale cur =
    Wire.Err
      (Printf.sprintf "stale promotion epoch %d (current is %d)" epoch cur)
  in
  let cur = locked t (fun () -> t.epoch) in
  if epoch <= cur then stale cur
  else begin
    (* sever outside [t.mu]: the subscriber thread may be inside
       [adopt_epoch] which takes the same lock *)
    let sub = locked t (fun () -> t.sub) in
    Option.iter Replicate.Subscriber.stop sub;
    locked t (fun () ->
        t.sub <- None;
        if epoch <= t.epoch then begin
          (* lost a race to a newer promotion/adoption between the check
             and the sever: resume replicating rather than staying a
             severed, ever-staler replica *)
          if t.hub = None then become_replica_locked t ~seed:t.following;
          stale t.epoch
        end
        else begin
          persist_epoch t.dir epoch;
          t.epoch <- epoch;
          clear_fenced t.dir;
          (match t.hub with
           | Some hub ->
             (* already primary: adopt the higher epoch; a fence
                recorded at a lower epoch is superseded by it *)
             Replicate.Hub.unfence hub ~epoch
           | None -> become_primary_locked t);
          Log.info (fun f ->
              f "promoted to primary at epoch %d (fence %d)" epoch
                (Store.last_seq t.store));
          Wire.Ok [ Printf.sprintf "primary epoch %d fence %d" epoch
                      (Store.last_seq t.store) ]
        end)
  end

let subscribe t ~fence ~epoch ~fd ~reader =
  match locked t (fun () -> t.hub) with
  | Some hub -> Replicate.Hub.subscribe hub ~fence ~epoch ~fd ~reader
  | None ->
    let upstream = locked t (fun () -> t.following) in
    let reply =
      Wire.Err
        (if upstream = "" then "not a primary"
         else Printf.sprintf "not a primary; primary is %s" upstream)
    in
    (try Io.write_lines fd (Wire.encode_reply reply)
     with Unix.Unix_error _ -> ())

(** The hook record handed to {!Serve.create}. *)
let serve_hooks t =
  {
    Serve.rh_status = (fun () -> status t);
    rh_promote = (fun ~epoch -> promote t ~epoch);
    rh_subscribe =
      (fun ~fence ~epoch ~fd ~reader -> subscribe t ~fence ~epoch ~fd ~reader);
  }

let stop t =
  let sub, hub = locked t (fun () -> (t.sub, t.hub)) in
  Option.iter Replicate.Subscriber.stop sub;
  Option.iter Replicate.Hub.stop hub

(* -------------------------- promotion picker ------------------------- *)

(** [promote_best endpoints] — client-side failover orchestration: probe
    every member, pick the reachable {e unfenced} member with the
    highest fence (ties to the highest epoch), and promote it under
    [max observed epoch + 1].  A live fenced ex-primary is never a
    candidate even though its unacked WAL suffix typically gives it the
    highest fence: that suffix is the divergent timeline — promoting it
    would resurrect writes whose clients were told they failed.  Its
    epoch still counts toward the maximum, so the winner's epoch beats
    it.  Returns the promoted endpoint. *)
let promote_best endpoints =
  let probed = List.map (fun e -> (e, Client.probe_endpoint e)) endpoints in
  let up =
    List.filter (fun (_, st) -> st.Client.es_role <> None) probed
  in
  let candidates =
    List.filter (fun (_, st) -> not st.Client.es_fenced) up
  in
  match candidates with
  | [] ->
    Result.Error
      (if up = [] then "no reachable member to promote"
       else "no reachable unfenced member to promote")
  | _ -> (
    let max_epoch =
      List.fold_left (fun acc (_, st) -> max acc st.Client.es_epoch) 0 up
    in
    let best =
      List.sort
        (fun (_, a) (_, b) ->
          match compare b.Client.es_fence a.Client.es_fence with
          | 0 -> compare b.Client.es_epoch a.Client.es_epoch
          | c -> c)
        candidates
      |> List.hd |> fst
    in
    match Client.connect best with
    | Result.Error _ as e -> e
    | Result.Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.hello ~version:3 c with
          | Result.Error _ as e -> e
          | Result.Ok _ -> (
            match
              Client.ok_payload
                (Client.request c (Wire.Repl_promote { epoch = max_epoch + 1 }))
            with
            | Result.Error _ as e -> e
            | Result.Ok _ -> Result.Ok (best, max_epoch + 1))))
