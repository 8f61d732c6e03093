(** EINTR-retrying, partial-write-completing file-descriptor I/O,
    shared by the WAL, the snapshot writer, the server's connection
    handling and the cluster's epoch and fence files.

    [Unix.write] may write fewer bytes than asked and both read and
    write may fail with [EINTR] when a signal lands mid-syscall; a naive
    single-shot call turns either into a spurious error on an otherwise
    healthy connection.  Every loop here retries [EINTR] and completes
    partial writes.

    Write sites may name a {!Failpoint}: an armed [partial:K] then
    persists exactly [K] bytes of the in-flight write before crashing —
    the deterministic torn-write producer the recovery tests rely on.

    Line framing has one writer and one reader here.  {!write_lines}
    frames a whole reply or replication frame into one exact-size buffer
    and writes it once; {!read_line} cuts a line that lies whole in the
    buffer with one [Bytes.sub_string] and falls back to a byte loop
    only for a line that straddles a refill, ends in CR, runs past
    [max_line] or is the stream's unterminated last line.
    {!read_lines} reads a counted payload. *)

let rec retry f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry f

let write_all_plain fd bytes ~pos ~len =
  let off = ref pos and remaining = ref len in
  while !remaining > 0 do
    let n = retry (fun () -> Unix.write fd bytes !off !remaining) in
    off := !off + n;
    remaining := !remaining - n
  done

(** [write_all ?failpoint fd bytes ~pos ~len] writes the whole range,
    retrying [EINTR] and short writes.  With an armed [partial:K]
    failpoint, writes [min K len] bytes and crashes. *)
let write_all ?failpoint fd bytes ~pos ~len =
  match failpoint with
  | None -> write_all_plain fd bytes ~pos ~len
  | Some name -> (
    match Failpoint.hit name with
    | None -> write_all_plain fd bytes ~pos ~len
    | Some k ->
      write_all_plain fd bytes ~pos ~len:(min k len);
      (* make the torn prefix durable before dying, so the recovery
         test sees exactly K bytes, not 0-or-K depending on the page
         cache *)
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix._exit 137)

let write_string ?failpoint fd s =
  write_all ?failpoint fd (Bytes.unsafe_of_string s) ~pos:0
    ~len:(String.length s)

(** [frame_lines lines] — each line followed by ['\n'], in one buffer of
    exactly the framed size. *)
let frame_lines lines =
  let size = List.fold_left (fun n l -> n + String.length l + 1) 0 lines in
  let buf = Bytes.create size in
  let pos = ref 0 in
  List.iter
    (fun l ->
      let n = String.length l in
      Bytes.blit_string l 0 buf !pos n;
      Bytes.set buf (!pos + n) '\n';
      pos := !pos + n + 1)
    lines;
  buf

(** [write_lines ?failpoint fd lines] writes [lines], each terminated by
    ['\n'], with one {!write_all} — the wire framing of every reply and
    replication frame. *)
let write_lines ?failpoint fd lines =
  let buf = frame_lines lines in
  write_all ?failpoint fd buf ~pos:0 ~len:(Bytes.length buf)

(** [fsync ?failpoint fd] — [check]s the failpoint (a [crash] armed
    here dies {e before} the data is known durable), then syncs. *)
let fsync ?failpoint fd =
  Option.iter Failpoint.check failpoint;
  retry (fun () -> Unix.fsync fd)

(** [fsync_dir dir] syncs the directory itself, so a [rename] or
    [unlink] in it survives a crash.  Best effort: a file system that
    cannot sync directories is not an error. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(** [write_int_file ?failpoint path n] installs ["n\n"] at [path]
    crash-atomically: write and fsync [path ^ ".tmp"], [check] the
    failpoint (a [crash] there leaves the old file in place), rename over
    [path], then fsync the directory. *)
let write_int_file ?failpoint path n =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_string fd (Printf.sprintf "%d\n" n);
      fsync fd);
  Option.iter Failpoint.check failpoint;
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path)

(** [read_int_file path] — the integer on [path]'s first line; [None]
    when the file is absent, empty or not an integer. *)
let read_int_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | line -> int_of_string_opt (String.trim line)
        | exception End_of_file -> None)

(** [read_all fd] — the whole remaining content of [fd], EINTR-safe.
    Recovery reads WAL and snapshot files through this. *)
let read_all fd =
  let chunk = 65536 in
  let buf = Buffer.create chunk in
  let bytes = Bytes.create chunk in
  let rec go () =
    let n = retry (fun () -> Unix.read fd bytes 0 chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf bytes 0 n;
      go ()
    end
  in
  go ();
  Buffer.to_bytes buf

(* --------------------------- buffered reader -------------------------- *)

(** A buffered line reader over a raw descriptor — the connection-side
    replacement for [in_channel], with [EINTR] handled in the refill
    loop instead of surfacing as [Sys_error]. *)
type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable lo : int;  (** next unconsumed byte *)
  mutable hi : int;  (** end of valid data *)
  mutable eof : bool;
}

let reader ?(buf_size = 65536) fd =
  { fd; buf = Bytes.create buf_size; lo = 0; hi = 0; eof = false }

let refill r =
  if not r.eof then begin
    let n = retry (fun () -> Unix.read r.fd r.buf 0 (Bytes.length r.buf)) in
    r.lo <- 0;
    r.hi <- n;
    if n = 0 then r.eof <- true
  end

(* the byte-at-a-time reader: every case the fast path below declines *)
let read_line_slow r ~max_line =
  let acc = Buffer.create 128 in
  let add c = if Buffer.length acc <= max_line then Buffer.add_char acc c in
  let rec go ~pending_cr =
    if r.lo >= r.hi then refill r;
    if r.lo >= r.hi then begin
      (* EOF *)
      if pending_cr then add '\r';
      if Buffer.length acc = 0 then None else Some (Buffer.contents acc)
    end
    else
      let c = Bytes.get r.buf r.lo in
      r.lo <- r.lo + 1;
      match c with
      | '\n' -> Some (Buffer.contents acc)
      | '\r' ->
        if pending_cr then add '\r';
        go ~pending_cr:true
      | c ->
        if pending_cr then add '\r';
        add c;
        go ~pending_cr:false
  in
  go ~pending_cr:false

(* the first ['\n'] in the valid range [[lo, hi)], or [-1]; the bytes
   past [hi] are stale *)
let newline_index r =
  let rec scan i =
    if i >= r.hi then -1
    else if Bytes.unsafe_get r.buf i = '\n' then i
    else scan (i + 1)
  in
  scan r.lo

(** [read_line r ~max_line] — the next ['\n']-terminated line, without
    its terminator; a CR directly before the newline is stripped (CRLF
    clients), any other CR is content.  A line longer than [max_line]
    is consumed to its newline but truncated to [max_line + 1] bytes —
    enough for the wire decoder's length check to report it.  [None] at
    end of stream (a final unterminated line is returned first). *)
let read_line r ~max_line =
  if r.lo >= r.hi then refill r;
  let nl = newline_index r in
  if nl >= 0 && nl - r.lo <= max_line
     && (nl = r.lo || Bytes.get r.buf (nl - 1) <> '\r')
  then begin
    let line = Bytes.sub_string r.buf r.lo (nl - r.lo) in
    r.lo <- nl + 1;
    Some line
  end
  else read_line_slow r ~max_line

(** [read_lines r ~max_line n] — the next [n] lines, as {!read_line}
    reads them; [None] if the stream ends first. *)
let read_lines r ~max_line n =
  let rec go k acc =
    if k = 0 then Some (List.rev acc)
    else
      match read_line r ~max_line with
      | None -> None
      | Some line -> go (k - 1) (line :: acc)
  in
  go n []
