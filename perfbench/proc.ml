(* Process plumbing and host readings: spawning and killing the server,
   its CPU, memory and I/O counters from /proc, and the noise witness. *)

let now = Unix.gettimeofday

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* /proc files report a length of 0; read them line by line *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let rm_rf path =
  let rec go p =
    match Unix.lstat p with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    | _ -> Unix.unlink p
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  go path

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun e ->
      let s = Filename.concat src e in
      if not (Sys.is_directory s) then begin
        let oc = open_out_bin (Filename.concat dst e) in
        output_string oc (read_file s);
        close_out oc
      end)
    (Sys.readdir src)

(* ------------------------------ the server ---------------------------- *)

type server = { pid : int; sock : string }

(* servers spawned and not yet reaped: killed on any exit, so a failed
   or interrupted run leaves no process behind *)
let live = ref []

let spawn ~exe ~flags ~sock ~data_dir ~log =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let args = (exe :: flags) @ [ "--unix"; sock; "--data-dir"; data_dir ] in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin out out
  in
  Unix.close out;
  live := pid :: !live;
  { pid; sock }

let forget pid = live := List.filter (fun p -> p <> pid) !live

let kill_pid pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  forget pid

let kill9 s = kill_pid s.pid

let exited s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> false
  | _ ->
    forget s.pid;
    true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let () =
  at_exit (fun () -> List.iter kill_pid !live);
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ]

(* ------------------------------ /proc readings ------------------------ *)

(* Linux reports utime/stime in clock ticks of USER_HZ = 100 *)
let clock_ticks = 100.0

(** User + system CPU seconds the process has used so far. *)
let cpu_seconds pid =
  let stat = String.concat " " (read_lines (Printf.sprintf "/proc/%d/stat" pid)) in
  (* the command name may hold spaces: fields start after its ')' *)
  let rest = String.sub stat (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. clock_ticks

let field_kb path key =
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ k; v ] when k = key ->
        Some (float_of_string (List.hd (String.split_on_char ' ' (String.trim v))))
      | _ -> None)
    (read_lines path)
  |> Option.value ~default:0.0

(** Peak resident set, MB. *)
let peak_rss_mb pid = field_kb (Printf.sprintf "/proc/%d/status" pid) "VmHWM" /. 1024.0

(** Bytes the process caused to be written to storage (page-dirtying
    time accounting, so one fsync'd small append counts a whole page). *)
let write_bytes pid = field_kb (Printf.sprintf "/proc/%d/io" pid) "write_bytes"

(* ---------------------------- noise witness --------------------------- *)

(* aggregate CPU line of /proc/stat: (steal, total) jiffies *)
let cpu_jiffies () =
  match read_lines "/proc/stat" with
  | first :: _ ->
    let vals =
      String.split_on_char ' ' first
      |> List.filter (fun s -> s <> "")
      |> List.tl
      |> List.map float_of_string
    in
    let total = List.fold_left ( +. ) 0.0 vals in
    let steal = match List.nth_opt vals 7 with Some s -> s | None -> 0.0 in
    (steal, total)
  | [] -> (0.0, 1.0)

let loadavg () =
  match read_lines "/proc/loadavg" with
  | line :: _ -> float_of_string (List.hd (String.split_on_char ' ' line))
  | [] -> 0.0

(** Median wall time of [n] 4 KiB write+fsync pairs in [dir]. *)
let fsync_probe ~n dir =
  let path = Filename.concat dir "fsync-probe" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let block = Bytes.make 4096 'x' in
  let times =
    Array.init n (fun _ ->
        let t0 = now () in
        ignore (Unix.write fd block 0 4096);
        Unix.fsync fd;
        now () -. t0)
  in
  Unix.close fd;
  Unix.unlink path;
  Array.sort compare times;
  times.(n / 2)
