(* The load generator: one thread, at most two connections, the v1 wire
   protocol against a spawned [rightsizer serve].  Replies arrive in
   per-connection request order, so each connection keeps a FIFO of its
   outstanding operations. *)

module P = Server.Protocol
module C = Server.Codec

exception Wire_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Wire_error m)) fmt

(* --- daemon processes ------------------------------------------------ *)

let sock = "d.sock"
let store_dir = "store"

(* A log-mode daemon with default knobs and one domain.  [resume] names
   a snapshot file that never exists: with [--log-dir] it makes the
   daemon recover from the store (without it, a start is a fresh
   epoch). *)
let spawn ~bin ~resume ~log =
  let cfg =
    { (Server.Spawn.config ~bin ~sock ~log) with
      log_dir = Some store_dir;
      resume = (if resume then Some "no-snapshot.ckpt" else None) }
  in
  match Server.Spawn.start cfg with Ok d -> d | Error m -> fail "spawn: %s" m

let kill d =
  if Server.Spawn.alive d then begin
    (try Unix.kill (Server.Spawn.pid d) Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Server.Spawn.wait_exit ~timeout_s:30. d)
  end

(* VmHWM of a live process, MB. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let lines = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n' in
  match List.find_opt (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:") lines with
  | None -> fail "no VmHWM in %s" path
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (ENOENT, _, _) -> ()
  | { Unix.st_kind = S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* --- connections ----------------------------------------------------- *)

type op =
  | Feed_op of { sess : int; seq : int; n : int; due : float }
  | Query_op of { sess : int; acked : int; due : float }
  | Create_op of { sess : int }
  | Control_op                   (* hello, metrics *)

type conn = {
  fd : Unix.file_descr;
  dec : C.decoder;
  rbuf : Bytes.t;
  out : Buffer.t;
  pending : op Queue.t;
}

(* Dial until the daemon's socket accepts, polling every millisecond. *)
let dial ?(timeout_s = 60.) d =
  let deadline = Stat.now () +. timeout_s in
  let rec go () =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if not (Server.Spawn.alive d) then
          fail "daemon exited before accepting: %s" (Server.Spawn.log_tail d);
        if Stat.now () > deadline then fail "daemon not ready after %.0f s" timeout_s;
        Unix.sleepf 0.001;
        go ()
  in
  let fd = go () in
  Unix.set_nonblock fd;
  { fd; dec = C.decoder (); rbuf = Bytes.create 65536; out = Buffer.create 4096;
    pending = Queue.create () }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let enqueue c req op =
  Buffer.add_string c.out (C.encode (P.request_to_sexp req));
  Queue.add op c.pending

(* Non-blocking write of what [c.out] holds; the rest stays queued and
   [pump] waits for the socket to drain.  A blocking write could
   deadlock: the daemon writes its replies with blocking writes, so a
   generator stuck writing requests while replies pile up would leave
   both sides waiting on each other. *)
let flush c =
  let len = Buffer.length c.out in
  if len > 0 then begin
    let s = Buffer.contents c.out in
    let rec go off =
      if off >= len then len
      else
        match Unix.write_substring c.fd s off (len - off) with
        | exception Unix.Unix_error (EINTR, _, _) -> go off
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> off
        | exception Unix.Unix_error (e, _, _) -> fail "write: %s" (Unix.error_message e)
        | n -> go (off + n)
    in
    let off = go 0 in
    Buffer.clear c.out;
    if off < len then Buffer.add_substring c.out s off (len - off)
  end

(* Read what is available on [c] and hand every complete reply, paired
   with the operation it answers and the time its bytes were read, to
   [k].  Replies that arrive in one read share that time, so decoding
   one does not count against the next. *)
let drain c k =
  match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
  | exception Unix.Unix_error ((EINTR | EAGAIN), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> fail "read: %s" (Unix.error_message e)
  | 0 -> fail "daemon closed the connection"
  | n ->
      let now = Stat.now () in
      C.feed c.dec c.rbuf n;
      let rec pull () =
        match C.next c.dec with
        | Error m -> fail "bad frame: %s" m
        | Ok None -> ()
        | Ok (Some sexp) -> (
            match P.response_of_sexp sexp with
            | Error m -> fail "bad response: %s" m
            | Ok r ->
                let op =
                  match Queue.take_opt c.pending with
                  | Some op -> op
                  | None -> fail "reply with no request outstanding"
                in
                k op r now;
                pull ())
      in
      pull ()

(* Wait up to [timeout] seconds for replies on any connection, writing
   queued requests as the sockets accept them. *)
let pump conns ~timeout k =
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let wfds =
    Array.fold_left (fun acc c -> if Buffer.length c.out > 0 then c.fd :: acc else acc) [] conns
  in
  match Unix.select fds wfds [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | readable, writable, _ ->
      Array.iter (fun c -> if List.memq c.fd writable then flush c) conns;
      Array.iter (fun c -> if List.memq c.fd readable then drain c k) conns

let outstanding conns = Array.fold_left (fun acc c -> acc + Queue.length c.pending) 0 conns

(* --- the served-session state the generator tracks ------------------- *)

type t = {
  sessions : Inputs.session array;
  mutable conns : conn array;      (* see [feed_conn], [query_conn] *)
  decided : Model.Config.t array array;  (* per session, per slot; [||] = none yet *)
  next_seq : int array;            (* next slot to feed, per session *)
  acked : int array;               (* slots whose decisions came back *)
  mutable snapshots : (int * int * string) list;
      (* (session, slots acknowledged when the query was sent, state);
         kept rendered, so hundreds of them add little to the
         generator's heap and its collections *)
  mutable errors : string list;    (* the first few failure messages *)
  mutable n_errors : int;
  mutable reattached : (int * int) list;  (* (session, fed) from re-attach replies *)
}

let create sessions =
  { sessions;
    conns = [||];
    decided = Array.map (fun s -> Array.make (Array.length s.Inputs.trace) [||]) sessions;
    next_seq = Array.make (Array.length sessions) 0;
    acked = Array.make (Array.length sessions) 0;
    snapshots = [];
    errors = [];
    n_errors = 0;
    reattached = [] }

(* Roles of the two connections: every session's creates and feeds go
   over the first, so a tick's frames reach the daemon in one write and
   one round; query-snapshot reads — a monitoring client — over the
   second.  Splitting a tick's frames across connections would let the
   daemon serve them in one round or two, depending on a wake-up race,
   and put the median frame on the edge between the two. *)
let feed_conn t = t.conns.(0)
let query_conn t = t.conns.(Array.length t.conns - 1)

let record_error t msg =
  t.n_errors <- t.n_errors + 1;
  if List.length t.errors < 5 then t.errors <- msg :: t.errors

let hello c =
  enqueue c (P.Hello { version = P.version }) Control_op;
  flush c

(* Open [n] connections, say hello on each and (re-)attach every session;
   the replies' [fed] counts are kept for the recovery check. *)
let attach t d ~n_conns =
  t.conns <- Array.init n_conns (fun _ -> dial d);
  Array.iter hello t.conns;
  Array.iteri
    (fun i (s : Inputs.session) ->
      enqueue (feed_conn t)
        (P.Create_session { id = s.id; scenario = s.scenario; max_horizon = None; alg = None })
        (Create_op { sess = i }))
    t.sessions;
  Array.iter flush t.conns;
  t.reattached <- [];
  let deadline = Stat.now () +. 60. in
  while outstanding t.conns > 0 do
    if Stat.now () > deadline then fail "attach timed out";
    pump t.conns ~timeout:0.05 (fun op r _ ->
        match (op, r) with
        | Control_op, P.Welcome _ -> ()
        | Create_op { sess }, P.Session { fed; _ } ->
            t.reattached <- (sess, fed) :: t.reattached
        | _, P.Error { msg; _ } -> fail "attach: %s" msg
        | _ -> fail "attach: unexpected reply")
  done

let disconnect t =
  Array.iter close_conn t.conns;
  t.conns <- [||]

(* The daemon's telemetry scrape ([metrics] request). *)
let scrape t =
  let c = t.conns.(0) in
  let body = ref "" in
  enqueue c P.Metrics Control_op;
  flush c;
  while outstanding t.conns > 0 do
    pump t.conns ~timeout:0.05 (fun _ r _ ->
        match r with P.Metrics_reply { body = b } -> body := b | _ -> fail "metrics: unexpected reply")
  done;
  !body

(* Value of a counter in a Prometheus scrape. *)
let scrape_value body name =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = name ->
          float_of_string (String.trim (String.sub line i (String.length line - i)))
      | _ -> acc)
    0. (String.split_on_char '\n' body)

(* --- phases ---------------------------------------------------------- *)

type phase = {
  label : string;
  ops : int;                 (* operations attempted *)
  op_failures : int;
  slots : int;               (* decisions returned by feeds *)
  latency_ms : float array;  (* per feed frame, from when it was due *)
  lag_ms : float array;      (* how late each frame left the generator *)
  elapsed_s : float;
  done_at : float array;     (* when each feed reply arrived, from the start *)
}

type kind = { frame : int; query_every : int }

(* Several parts of one phase taken as one. *)
let merge label parts =
  let cat f = Array.concat (List.map f parts) in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 parts in
  { label;
    ops = sum (fun p -> p.ops);
    op_failures = sum (fun p -> p.op_failures);
    slots = sum (fun p -> p.slots);
    latency_ms = cat (fun p -> p.latency_ms);
    lag_ms = cat (fun p -> p.lag_ms);
    elapsed_s = List.fold_left (fun acc p -> acc +. p.elapsed_s) 0. parts;
    done_at = [||] }

(* Route a reply to the tracked state; returns the session it completed
   an operation of and whether it was a feed frame. *)
let on_reply t lat now op r =
  let ok_feed sess seq n due configs =
    if Array.length configs <> n then record_error t "decisions: wrong count"
    else begin
      Array.iteri (fun i x -> t.decided.(sess).(seq + i) <- x) configs;
      t.acked.(sess) <- max t.acked.(sess) (seq + n)
    end;
    Stat.Samples.add lat ((now -. due) *. 1000.)
  in
  match (op, r) with
  | Feed_op { sess; seq; n; due }, P.Decisions { id; seq = seq'; configs }
    when id = t.sessions.(sess).Inputs.id && seq' = seq ->
      ok_feed sess seq n due configs;
      (sess, true, true)
  | Query_op { sess; acked; _ }, P.Snapshot_state { id; state }
    when id = t.sessions.(sess).Inputs.id ->
      t.snapshots <- (sess, acked, Util.Sexp.to_string state) :: t.snapshots;
      (sess, false, true)
  | (Feed_op { sess; _ } | Query_op { sess; _ } | Create_op { sess }), P.Error { msg; _ } ->
      record_error t msg;
      (sess, false, false)
  | (Feed_op { sess; _ } | Query_op { sess; _ } | Create_op { sess }), _ ->
      record_error t "unexpected reply";
      (sess, false, false)
  | Control_op, _ ->
      record_error t "unexpected reply to a control request";
      (-1, false, false)

(* Queue operation number [k] of a phase for session [sess]: every
   [query_every]-th operation is a [query-snapshot] read, the rest feed
   the session's next [frame] slots.  Returns whether it was a feed. *)
let issue t kind ~k ~sess ~due =
  let s = t.sessions.(sess) in
  if kind.query_every > 0 && k mod kind.query_every = kind.query_every - 1 then begin
    enqueue (query_conn t) (P.Query_snapshot { id = s.Inputs.id })
      (Query_op { sess; acked = t.acked.(sess); due });
    false
  end
  else begin
    let seq = t.next_seq.(sess) in
    let n = kind.frame in
    if seq + n > Array.length s.Inputs.trace then fail "trace of %s exhausted" s.Inputs.id;
    enqueue (feed_conn t) (P.Feed { id = s.Inputs.id; seq; loads = Array.sub s.Inputs.trace seq n })
      (Feed_op { sess; seq; n; due });
    t.next_seq.(sess) <- seq + n;
    true
  end

let finish t label ~ops ~failures0 ~slots ?(done_at = [||]) lat lag elapsed =
  { label;
    ops;
    op_failures = t.n_errors - failures0;
    slots;
    latency_ms = Stat.Samples.to_array lat;
    lag_ms = Stat.Samples.to_array lag;
    elapsed_s = elapsed;
    done_at }

(* Closed loop: one operation in flight per session; a reply releases
   that session's next operation.  Stops issuing once [feeds] feed
   frames have gone out (or a session has issued [per_session]
   operations), then drains. *)
let closed_loop t kind ~label ?(per_session = max_int) ~feeds () =
  let n = Array.length t.sessions in
  let failures0 = t.n_errors in
  let lat = Stat.Samples.create () and lag = Stat.Samples.create () in
  let issued = Array.make n 0 in
  let k = ref 0 and fed = ref 0 and slots = ref 0 in
  let done_at = Stat.Samples.create () in
  let t0 = Stat.now () in
  let next sess =
    if issued.(sess) < per_session && !fed < feeds then begin
      if issue t kind ~k:!k ~sess ~due:(Stat.now ()) then incr fed;
      incr k;
      issued.(sess) <- issued.(sess) + 1
    end
  in
  for sess = 0 to n - 1 do
    next sess
  done;
  Array.iter flush t.conns;
  let guard = t0 +. 170. in
  while outstanding t.conns > 0 do
    if Stat.now () > guard then fail "%s: replies stopped arriving" label;
    pump t.conns ~timeout:0.05 (fun op r now ->
        let sess, was_feed, ok = on_reply t lat now op r in
        (match op with
        | Feed_op { n; _ } when was_feed && ok ->
            slots := !slots + n;
            Stat.Samples.add done_at (now -. t0)
        | _ -> ());
        if sess >= 0 then next sess);
    Array.iter flush t.conns
  done;
  finish t label ~ops:!k ~failures0 ~slots:!slots ~done_at:(Stat.Samples.to_array done_at) lat
    lag (Stat.now () -. t0)

(* Open loop: operation [k] goes to session [k mod n] and falls due on
   a fixed schedule whether or not earlier replies came back.  With
   [ticks], every session's next operation falls due at once, [rate / n]
   times a second — a right-sizing client reporting every session's load
   at a slot boundary; otherwise operations are spaced [1 / rate] apart.
   Latency runs from the due time, so a stall also charges the frames
   queued behind it; [lag_ms] records how late the generator itself sent
   each frame. *)
let open_loop t kind ~label ~ticks ~rate ~ops =
  let n = Array.length t.sessions in
  let failures0 = t.n_errors in
  let lat = Stat.Samples.create () and lag = Stat.Samples.create () in
  let slots = ref 0 in
  let t0 = Stat.now () +. 0.005 in
  let due k =
    if ticks then t0 +. (float_of_int (k / n) *. float_of_int n /. rate)
    else t0 +. (float_of_int k /. rate)
  in
  let k = ref 0 in
  (* Issue every operation that has come due; also called between
     replies, so a burst of replies does not hold the schedule up. *)
  let send_due () =
    let now = Stat.now () in
    if !k < ops && due !k <= now then begin
      while !k < ops && due !k <= now do
        ignore (issue t kind ~k:!k ~sess:(!k mod n) ~due:(due !k));
        Stat.Samples.add lag ((now -. due !k) *. 1000.);
        incr k
      done;
      Array.iter flush t.conns
    end
  in
  let guard = due ops +. 150. in
  while !k < ops || outstanding t.conns > 0 do
    if Stat.now () > guard then fail "%s: replies stopped arriving" label;
    send_due ();
    let timeout = if !k < ops then due !k -. Stat.now () else 0.05 in
    pump t.conns ~timeout (fun op r now ->
        let _, was_feed, ok = on_reply t lat now op r in
        (match op with Feed_op { n; _ } when was_feed && ok -> slots := !slots + n | _ -> ());
        send_due ())
  done;
  finish t label ~ops ~failures0 ~slots:!slots lat lag (Stat.now () -. t0)
