(** A timed condition wait: [Condition.wait] with a deadline.

    OCaml's [Condition] has no timed wait.  [wait m c ~until] keeps the
    contract of [Condition.wait m c] — the caller holds [m], wakeups may
    be spurious, and the caller re-checks its predicate in a loop — and
    additionally returns once [until] (a [Unix.gettimeofday] instant)
    has passed:
    {[
      Mutex.lock m;
      while not (ready ()) && Unix.gettimeofday () < deadline do
        Timed.wait m c ~until:deadline
      done;
      Mutex.unlock m
    ]}

    One watchdog thread, started on first use, holds the deadlines of
    the registered waiters.  While any is registered it wakes every
    [tick] and broadcasts the condition of each waiter whose deadline
    has passed; with none registered it parks.  A waiter registers
    while holding its own mutex, and the watchdog takes that mutex
    before broadcasting, so the broadcast cannot fall between the
    caller's predicate check and its wait.  The watchdog never holds
    the registry lock while it takes a waiter's mutex (waiters take
    their mutex first, then the registry lock).

    [Domain.join] waits for every thread of the joined domain, so a
    watchdog that started on a worker domain (a replication barrier
    running inside an [Executor] task) exits as soon as nobody is
    registered, and the next waiter starts a fresh one; only a
    watchdog on the main domain parks. *)

type waiter = { m : Mutex.t; c : Condition.t; until : float }

(* deadline granularity: a waiter returns at most about one tick after
   its deadline *)
let tick = 0.005

let lock = Mutex.create ()
let wake = Condition.create ()  (* registry became non-empty *)
let waiters : waiter list ref = ref []
let watching = ref false  (* a watchdog thread exists *)

let rec watchdog () =
  Mutex.lock lock;
  while !waiters = [] && Domain.is_main_domain () do
    Condition.wait wake lock
  done;
  if !waiters = [] then begin
    watching := false;
    Mutex.unlock lock
  end
  else begin
    let now = Unix.gettimeofday () in
    let due = List.filter (fun w -> w.until <= now) !waiters in
    Mutex.unlock lock;
    List.iter
      (fun w ->
        Mutex.lock w.m;
        Condition.broadcast w.c;
        Mutex.unlock w.m)
      due;
    Unix.sleepf tick;
    watchdog ()
  end

(** [wait m c ~until] — see the module comment.  The caller must hold
    [m]; it holds [m] again when [wait] returns. *)
let wait m c ~until =
  if Unix.gettimeofday () < until then begin
    let w = { m; c; until } in
    Mutex.lock lock;
    if !waiters = [] then Condition.signal wake;
    waiters := w :: !waiters;
    if not !watching then begin
      watching := true;
      ignore (Thread.create watchdog ())
    end;
    Mutex.unlock lock;
    Condition.wait c m;
    Mutex.lock lock;
    waiters := List.filter (fun x -> x != w) !waiters;
    Mutex.unlock lock
  end
