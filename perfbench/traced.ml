(* The traced run: a prefix of the workload's request stream (the one
   the end-to-end run sends) replayed in-process through the server's
   own layers — Wire.feed → Executor.try_submit → Service.handle →
   Wire.encode_reply — from as many submitter threads as the workload
   has connections, with a durable store attached under the server's
   flush policy.  Spans are recorded around each call from here (the
   program itself is not instrumented), kept in memory and written out
   when the run ends.  The inner layers are also timed directly on the
   same inputs. *)

module Wire = Server.Wire
module Service = Server.Service

let now = Proc.now

(* ------------------------------- spans -------------------------------- *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** 0 = a root *)
  req : int;  (** request id shared by the spans of one request *)
}

type tracer = {
  tmu : Mutex.t;
  mutable on : bool;
  mutable spans : span list;
  mutable next : int;
}

let tracer () = { tmu = Mutex.create (); on = true; spans = []; next = 1 }

let record tr ~req ~parent name start stop =
  if tr.on then
    Mutex.protect tr.tmu (fun () ->
        let id = tr.next in
        tr.next <- id + 1;
        tr.spans <- { id; name; start; stop; parent; req } :: tr.spans;
        id)
  else 0

(* self time: a span's duration minus the part its children cover
   (children of one span never overlap here: they run in sequence) *)
let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent
          (s.stop -. s.start +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s ->
      (s.name, s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)))
    spans

let write_spans path spans =
  let oc = open_out path in
  output_string oc "id\tname\tstart\tstop\tparent\treq\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%s\t%.9f\t%.9f\t%d\t%d\n" s.id s.name s.start s.stop s.parent s.req)
    (List.rev spans);
  close_out oc

(* ----------------------------- the replay ----------------------------- *)

type cell = {
  cm : Mutex.t;
  cc : Condition.t;
  mutable reply : Wire.reply option;
  mutable t_start : float;
  mutable t_end : float;
  mutable alloc : float;  (** bytes allocated by the worker domain *)
}

type totals = {
  mu : Mutex.t;
  mutable reqs : int;
  mutable queue_wait : float;
  mutable decode : float;
  mutable encode : float;
  mutable alloc_bytes : float;
  mutable wall : float;
}

(* One request: decode its wire lines, submit it, wait for the worker's
   reply, encode the reply.  Each submitter has its own decoder, as
   each server connection does. *)
let one tr tot svc exec dec rid req =
  let lines = Wire.encode_request req in
  let t0 = now () in
  let decoded =
    List.fold_left
      (fun acc line ->
        match Wire.feed dec line with
        | Wire.Request r -> Some r
        | Wire.More -> acc
        | Wire.Error e -> failwith ("replay decode: " ^ e))
      None lines
  in
  let t1 = now () in
  let request = match decoded with Some r -> r | None -> failwith "replay: incomplete request" in
  let cell =
    { cm = Mutex.create (); cc = Condition.create (); reply = None; t_start = 0.0;
      t_end = 0.0; alloc = 0.0 }
  in
  let task () =
    let a0 = Gc.allocated_bytes () in
    let ts = now () in
    let reply = try Service.handle svc request with e -> Wire.Err (Printexc.to_string e) in
    let te = now () in
    let a1 = Gc.allocated_bytes () in
    Mutex.lock cell.cm;
    cell.reply <- Some reply;
    cell.t_start <- ts;
    cell.t_end <- te;
    cell.alloc <- a1 -. a0;
    Condition.signal cell.cc;
    Mutex.unlock cell.cm
  in
  let t2 = now () in
  if not (Parallel.Executor.try_submit exec task) then failwith "replay: executor full";
  Mutex.lock cell.cm;
  while cell.reply = None do
    Condition.wait cell.cc cell.cm
  done;
  Mutex.unlock cell.cm;
  let reply = Option.get cell.reply in
  (match reply with
   | Wire.Ok _ -> ()
   | Wire.Err e -> failwith ("replay: ERR " ^ e)
   | Wire.Busy -> failwith "replay: BUSY");
  let t5 = now () in
  let text = String.concat "" (List.map (fun l -> l ^ "\n") (Wire.encode_reply reply)) in
  ignore (Sys.opaque_identity text);
  let t6 = now () in
  let root = record tr ~req:rid ~parent:0 "request" t0 t6 in
  ignore (record tr ~req:rid ~parent:root "wire.decode" t0 t1);
  ignore (record tr ~req:rid ~parent:root "executor.queue_wait" t2 cell.t_start);
  ignore (record tr ~req:rid ~parent:root "service.handle" cell.t_start cell.t_end);
  ignore (record tr ~req:rid ~parent:root "wire.encode" t5 t6);
  Mutex.protect tot.mu (fun () ->
      tot.reqs <- tot.reqs + 1;
      tot.queue_wait <- tot.queue_wait +. (cell.t_start -. t2);
      tot.decode <- tot.decode +. (t1 -. t0);
      tot.encode <- tot.encode +. (t6 -. t5);
      tot.alloc_bytes <- tot.alloc_bytes +. cell.alloc)

(** Replay [requests] in order from [conns] submitter threads, each
    taking the next request as soon as its previous one is answered. *)
let replay tr svc exec ~conns requests =
  let tot =
    { mu = Mutex.create (); reqs = 0; queue_wait = 0.0; decode = 0.0; encode = 0.0;
      alloc_bytes = 0.0; wall = 0.0 }
  in
  let reqs = Array.of_list requests and next = Atomic.make 0 in
  let submitter () =
    let dec = Wire.decoder () in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length reqs then begin
        one tr tot svc exec dec (i + 1) reqs.(i);
        loop ()
      end
    in
    loop ()
  in
  let t_begin = now () in
  (if conns = 1 then submitter ()
   else begin
     (* a failure in a submitter thread fails the replay, as it would
        with one submitter *)
     let failure = Atomic.make None in
     let guarded () = try submitter () with e -> ignore (Atomic.compare_and_set failure None (Some e)) in
     Array.iter Thread.join (Array.init conns (fun _ -> Thread.create guarded ()));
     Option.iter raise (Atomic.get failure)
   end);
  tot.wall <- now () -. t_begin;
  tot

(* ------------------- what the replay derives from the stream ---------------- *)

let requests cycles =
  List.concat_map (fun (cy : Workloads.cycle) -> List.map (fun st -> st.Workloads.req) cy.steps) cycles

(* the mutations among [reqs], as the store logs them *)
let mutations reqs =
  List.filter_map
    (function
      | Wire.Load { session; kind; payload } ->
        Some (Durable.Store.Load { session; kind = Wire.string_of_kind kind; payload })
      | _ -> None)
    reqs

let tboxes reqs =
  List.filter_map
    (function Wire.Load { kind = Wire.K_tbox; payload; _ } -> Some payload | _ -> None)
    reqs

(* ------------------------------ the run ------------------------------- *)

let fresh_service ~dir ~snapshot_bytes =
  Proc.rm_rf dir;
  let registry = Obs.Registry.create () in
  let store =
    match Durable.Store.open_dir ~registry ~fsync_on_commit:true ~snapshot_bytes dir with
    | Result.Ok (store, _) -> store
    | Result.Error e -> failwith e
  in
  let svc = Service.create ~registry () in
  Service.attach_store svc store;
  let snap = Parallel.Executor.create ~registry ~workers:1 ~queue_capacity:1 () in
  Service.set_snapshot_executor svc snap;
  let exec = Parallel.Executor.create ~registry ~workers:2 ~queue_capacity:64 () in
  (svc, store, snap, exec)

let close_service (_, store, snap, exec) =
  Parallel.Executor.shutdown exec;
  Parallel.Executor.shutdown snap;
  Durable.Store.close store

let mean_ms f xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let total = List.fold_left (fun acc x -> acc +. f x) 0.0 xs in
    1000.0 *. total /. float_of_int (List.length xs)

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** The per-layer figures the traced run measures, by name: [cycles]
    cycles of [w] replayed after its set-up. *)
let run ~dir ~name ~(w : Workloads.t) ~cycles ~snapshot_bytes =
  let ops = requests (List.init cycles (fun _ -> w.next ())) in
  (* the WAL timing takes the workload's own mutations: the window's,
     or the probe's where the window has none *)
  let writes =
    match mutations ops with [] -> mutations (requests w.probe) | ms -> ms
  in
  let conns = w.conns in
  let traced_dir = Filename.concat dir "traced" in
  let bare_dir = Filename.concat dir "traced-bare" in
  (* the same replay with spans off, before and after the traced one:
     their mean is the overhead baseline, so neither side gains from
     running second *)
  let bare () =
    let ((svc, _, _, exec) as sv) = fresh_service ~dir:bare_dir ~snapshot_bytes in
    let tr = tracer () in
    tr.on <- false;
    ignore (replay tr svc exec ~conns:1 w.setup);
    let tot = replay tr svc exec ~conns ops in
    close_service sv;
    tot.wall
  in
  let bare_before = bare () in
  let tr = tracer () in
  let ((svc, _, _, exec) as sv) = fresh_service ~dir:traced_dir ~snapshot_bytes in
  tr.on <- false;
  ignore (replay tr svc exec ~conns:1 w.setup);
  tr.on <- true;
  let tot = replay tr svc exec ~conns ops in
  write_spans (Filename.concat dir (Printf.sprintf "trace-%s.tsv" name)) tr.spans;
  let bytes_per_row =
    match Service.find_session svc Inputs.session with
    | Some sess ->
      let db = sess.Service.database in
      float_of_int (8 * Obj.reachable_words (Obj.repr db))
      /. float_of_int (max 1 (Obda.Database.size db))
    | None -> 0.0
  in
  close_service sv;
  let bare_wall = (bare_before +. bare ()) /. 2.0 in
  (* recovery of the traced store, on a copy *)
  let copy = Filename.concat dir "traced-copy" in
  Proc.rm_rf copy;
  Proc.copy_dir traced_dir copy;
  let registry = Obs.Registry.create () in
  let (store, recovery), open_s =
    time (fun () ->
        match Durable.Store.open_dir ~registry copy with
        | Result.Ok p -> p
        | Result.Error e -> failwith e)
  in
  let restored = Service.create ~registry () in
  let _, replay_s =
    time (fun () ->
        match Service.restore restored recovery.Durable.Store.mutations with
        | Result.Ok _ -> ()
        | Result.Error e -> failwith e)
  in
  Durable.Store.close store;
  (* the WAL append on its own, fsync per append as in the server *)
  let wal_dir = Filename.concat dir "traced-wal" in
  Proc.rm_rf wal_dir;
  let wal_ms =
    match Durable.Store.open_dir ~registry:(Obs.Registry.create ()) wal_dir with
    | Result.Error e -> failwith e
    | Result.Ok (store, _) ->
      let writes = List.filteri (fun i _ -> i < 50) writes in
      let ms = mean_ms (fun m -> snd (time (fun () -> ignore (Durable.Store.append store m)))) writes in
      Durable.Store.close store;
      ms
  in
  (* rule-base preparation on every TBox the stream loads *)
  let prepare_ms =
    mean_ms
      (fun lines ->
        let tbox = Workloads.parse_tbox lines in
        snd (time (fun () -> ignore (Obda.Rewrite.prepare tbox))))
      (tboxes (w.setup @ ops))
  in
  (* source-tuple inserts into a fresh database *)
  let insert_us =
    let db = Obda.Database.create () in
    let rows = Lazy.force w.rows in
    let (), dt = time (fun () -> List.iter (fun (rel, row) -> Obda.Database.insert db rel row) rows) in
    1e6 *. dt /. float_of_int (max 1 (List.length rows))
  in
  let n = float_of_int (max 1 tot.reqs) in
  [
    ("executor.queue_wait_ms", 1000.0 *. tot.queue_wait /. n, "ms");
    ("wire.decode_us", 1e6 *. tot.decode /. n, "us");
    ("wire.encode_us", 1e6 *. tot.encode /. n, "us");
    ("rewrite.prepare_ms", prepare_ms, "ms");
    ("db.insert_us", insert_us, "us");
    ("db.bytes_per_row", bytes_per_row, "B");
    ("wal.append_ms", wal_ms, "ms");
    ("store.open_ms", 1000.0 *. open_s, "ms");
    ("store.replay_ms", 1000.0 *. replay_s, "ms");
    ("gc.alloc_kb_per_op", tot.alloc_bytes /. 1024.0 /. n, "KiB");
    ("trace.overhead_ratio", Stats.ratio (tot.wall -. bare_wall) bare_wall, "ratio");
    ("executor.handoff_us",
     1e6 *. (List.fold_left (fun acc (name, dt) -> if name = "request" then acc +. dt else acc)
               0.0 (self_times tr.spans)) /. n, "us");
  ]
