(* Order statistics and the result line. *)

let sorted a =
  let b = Array.copy a in
  Array.sort compare b;
  b

(* Linear interpolation between closest ranks ([q] in [0, 1]) — the
   "inclusive" definition, so the median of an even count is the mean
   of the middle pair. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let b = sorted a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then b.(n - 1)
    else b.(i) +. ((pos -. float_of_int i) *. (b.(i + 1) -. b.(i)))
  end

let median a = quantile a 0.5

(* The highest of the usual tail percentiles with at least twenty
   samples beyond it; a phase of fewer than 100 samples has no tail but
   its median.  (With ten beyond, the p95 of a few hundred frames moved
   by 2x between seeds on a shared machine.) *)
let tail_q n =
  match List.find_opt (fun q -> float_of_int n *. (1. -. q) >= 20.) [ 0.99; 0.98; 0.95; 0.9; 0.8 ] with
  | Some q -> q
  | None -> 0.5

let tail a = quantile a (tail_q (Array.length a))

(* A growable float buffer for per-operation samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
  let length t = t.len
end

(* Seconds on the monotonic clock (nanosecond resolution). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Wall-clock duration of [f ()] in seconds, with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let us_since t0 = (now () -. t0) *. 1e6

let ratio a b = if b = 0. then 0. else a /. b

(* Current value of one of the program's Obs counters. *)
let counter name = match Obs.Counter.find name with Some c -> Obs.Counter.value c | None -> 0

(* CPU ticks (all, stolen) from /proc/stat: on a virtual machine, time
   the host ran someone else while this machine's CPUs wanted to run. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let v = List.map (fun f -> try float_of_string f with _ -> 0.) fields in
          (List.fold_left ( +. ) 0. v, (match List.nth_opt v 7 with Some x -> x | None -> 0.))
      | _ -> (0., 0.))
  | None | (exception Sys_error _) -> (0., 0.)

(* --- the result line ------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

(* Human-readable per-phase lines go to stdout before the result line;
   only the last line is the machine-read result. *)
let note fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt
