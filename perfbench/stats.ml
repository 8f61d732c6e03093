(* Sample vectors, order statistics and METRICS scrapes. *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let count t = t.n
end

(* nearest-rank percentile of an unsorted sample; 0 when empty *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = percentile 0.5 xs

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------ scrapes ------------------------------ *)

(* one METRICS exposition, as series key -> value; the key is the text
   before the value, e.g. [obda_op_seconds_sum{op="ask"}] *)
type scrape = (string, float) Hashtbl.t

let parse_scrape lines : scrape =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i -> (
          match
            float_of_string_opt
              (String.sub line (i + 1) (String.length line - i - 1))
          with
          | Some v -> Hashtbl.replace tbl (String.sub line 0 i) v
          | None -> ())
        | None -> ())
    lines;
  tbl

let get (s : scrape) key = Option.value ~default:0.0 (Hashtbl.find_opt s key)

(** [delta after before] — per-series difference (counters and
    histogram sums/counts only grow, so this is the window's share). *)
let delta (after : scrape) (before : scrape) : scrape =
  let d = Hashtbl.create (Hashtbl.length after) in
  Hashtbl.iter (fun k v -> Hashtbl.replace d k (v -. get before k)) after;
  d

(** Sum of every series of [family] (e.g. [obda_op_seconds_sum]) whose
    label set contains all of [labels]. *)
let sum_family (s : scrape) family labels =
  let matches key =
    let n = String.length family in
    String.length key >= n
    && String.sub key 0 n = family
    && (String.length key = n || key.[n] = '{')
    && List.for_all
         (fun (k, v) ->
           let needle = Printf.sprintf "%s=%S" k v in
           let rec find i =
             i + String.length needle <= String.length key
             && (String.sub key i (String.length needle) = needle || find (i + 1))
           in
           find n)
         labels
  in
  Hashtbl.fold (fun k v acc -> if matches k then acc +. v else acc) s 0.0
