(* The two served workloads: a fresh [rightsizer serve] per replica, its
   store in the run directory, one generator process. *)

type cfg = {
  n_sessions : int;
  scenarios : string array;  (* session i runs scenarios.(i mod length) *)
  frame : int;               (* slots per feed frame *)
  prefill_slots : int;       (* history length per session after set-up *)
  light_rate : float;        (* offered operations per second *)
  heavy_rate : float;
  light_ops : int;           (* operations per light slice *)
  heavy_ops : int;           (* operations per heavy slice *)
  closed_feeds : int;        (* feed frames per closed-loop slice *)
  ticks : bool;              (* open-loop operations fall due a tick at a time *)
  query_every : int;         (* every [query_every]-th operation is a query-snapshot *)
  recoveries : int;          (* restarts from the store per replica *)
  n_replicas : int;          (* replicas in a 30-second run *)
  per_replica : bool;        (* latency figures: median of the replicas' own, or pooled *)
}

(* The daemon's default --cement-every. *)
let cement_every = 4096

(* Set-up feeds histories in 8-slot frames. *)
let prefill_frame = 8

(* On the fleet every slice spans one cement cycle of records: 4096
   records, plus the feeds that ticks queued behind a stall fold into
   one record per session.  Set-up leaves 1856 records in the tail
   (64 creates, 28 frames per session), so each light and heavy slice
   carries exactly one cement near its middle and each closed slice
   exactly two — the same stalls in the same phases on every run. *)
let fleet =
  { n_sessions = 64;
    scenarios = [| "cpu-gpu"; "spot-market" |];
    frame = 1;
    prefill_slots = 224;
    light_rate = 1500.;
    heavy_rate = 3000.;
    light_ops = 4516;
    heavy_ops = 4975;
    closed_feeds = 2 * cement_every;
    ticks = true;
    (* A query (Session.save of one whole history, about 1 ms) makes
       its tick's round a third longer.  At one in 1023 operations one
       tick in sixteen carries one, so the median frame is one of a tick
       without: at one in 127, half the ticks carried a query and the
       median sat on the edge between the two kinds of tick. *)
    query_every = 1023;
    recoveries = 3;
    n_replicas = 5;
    per_replica = true }

(* serve-dp makes a handful of records per round and never reaches a
   cement in a run.  Its figures are pooled over five short replicas
   rather than three twice as long: one daemon process served its steps
   up to 30% slower than the next, and the light tail of three pooled
   replicas spread 0.15-0.26 between ten-seed runs. *)
let dp =
  { n_sessions = 4;
    scenarios = [| "large-fleet" |];
    frame = 8;
    prefill_slots = 64;
    light_rate = 25.;
    heavy_rate = 45.;
    light_ops = 60;
    heavy_ops = 65;
    closed_feeds = 74;
    ticks = false;
    query_every = 63;
    recoveries = 1;
    n_replicas = 5;
    per_replica = false }

(* A run is a few replicas, each a fresh daemon taken through set-up, a
   light, a heavy and a closed slice, and a kill and restart; every
   figure is taken over all of them.  On a shared machine the CPU's speed
   wanders by 20% from one five-second stretch to the next, and one
   daemon process runs faster or slower than the next, so a figure from
   one stretch of one process moved by as much between runs.  The count
   scales with [seconds], never below three. *)
let replicas cfg ~seconds =
  max 3 (int_of_float (Float.round (float_of_int cfg.n_replicas *. seconds /. 30.)))

let per_session cfg ops = ((ops + cfg.n_sessions - 1) / cfg.n_sessions) + 1

(* Slots each session can be fed in one replica; the closed slice may
   run unevenly across sessions, so it gets twice its even share. *)
let trace_len cfg =
  cfg.prefill_slots
  + cfg.frame
    * (per_session cfg cfg.light_ops + per_session cfg cfg.heavy_ops
      + (2 * per_session cfg cfg.closed_feeds))

let sessions cfg ~seed =
  let len = trace_len cfg in
  Array.init cfg.n_sessions (fun index ->
      Inputs.session ~seed ~index
        ~scenario:cfg.scenarios.(index mod Array.length cfg.scenarios)
        ~len)

let prefill_kind = { Wire.frame = prefill_frame; query_every = 0 }
let kind cfg = { Wire.frame = cfg.frame; query_every = cfg.query_every }

(* One set-up: a fresh store, a fresh daemon, every session created and
   fed its first [prefill_slots] slots. *)
let setup cfg ~bin sessions =
  Wire.rm_rf Wire.store_dir;
  let t0 = Stat.now () in
  let d = Wire.spawn ~bin ~resume:false ~log:"daemon.log" in
  let w = Wire.create sessions in
  Wire.attach w d ~n_conns:2;
  let pre =
    Wire.closed_loop w prefill_kind ~label:"prefill"
      ~per_session:(cfg.prefill_slots / prefill_frame)
      ~feeds:max_int ()
  in
  (d, w, pre, Stat.now () -. t0)

(* Offline re-plans of the served traces, timed one at a time: the first
   [plan_window] slots of each session's trace, planned exactly, with
   the (1 + eps) grids, and with per-slot availability.  Every replica
   plans every session, so the timings spread over the run like the
   served phases. *)
let plan_window = 128

let plan_all sessions ~fails ~ms =
  Array.iter
    (fun (s : Inputs.session) ->
      let n = min plan_window (Array.length s.Inputs.trace) in
      let inst = Inputs.served_instance s ~n and tvs = Inputs.served_tvs_instance s ~n in
      let exact, a = Stat.timed (fun () -> Offline.Dp.solve_optimal inst) in
      let approx, b = Stat.timed (fun () -> Offline.Dp.solve_approx ~eps:Inputs.eps inst) in
      let tvs_plan, c = Stat.timed (fun () -> Offline.Dp.solve_optimal tvs) in
      List.iteri (fun k x -> Stat.Samples.add ms.(k) (x *. 1000.)) [ a; b; c ];
      fails :=
        !fails
        @ Checks.plan (s.Inputs.id ^ " exact") inst exact
        @ Checks.plan (s.Inputs.id ^ " approx") inst approx
        @ Checks.approx ~eps:Inputs.eps ~exact:exact.Offline.Dp.cost ~approx:approx.Offline.Dp.cost
        @ Checks.plan (s.Inputs.id ^ " tvs") tvs tvs_plan)
    sessions

(* One replica's generator state and what its checks need. *)
type replica = {
  w : Wire.t;
  acked_at_kill : int array;
  reattached : (int * int) list;  (* (session, fed) at every re-attach *)
}

type timed = {
  replicas : replica list;
  attempted : int;
  failed : int;
  setups : float array;
  prefill : Wire.phase;
  light : Wire.phase;
  heavy : Wire.phase;
  light_parts : Wire.phase list;  (* one per replica *)
  heavy_parts : Wire.phase list;
  closed : Wire.phase list;
  cements : float * float * float;  (* during light, heavy, closed slices *)
  recover_s : float array;
  rss_mb : float array;
  plan_ms : float array array;  (* exact, approx, tvs *)
  plan_fails : string list;
}

(* The timed run.  Each slice sends a fixed amount of work, so the
   history a daemon holds — which sets the cement stall, the memory
   high-water mark and the recovery work — is the same on every run
   whatever the program's speed.  After its slices a replica's daemon
   peak RSS is read, and it is killed (SIGKILL) and restarted from its
   store [cfg.recoveries] times (a recovered daemon that is fed nothing
   leaves the store as it found it; serve-dp's recovery replays the
   whole history and takes seconds, so once). *)
let run_timed cfg ~bin ~seed ~seconds =
  let sessions = sessions cfg ~seed in
  let k = kind cfg in
  let n = replicas cfg ~seconds in
  let plan_fails = ref [] and plan_ms = Array.init 3 (fun _ -> Stat.Samples.create ()) in
  let one part =
    let d, w, prefill, setup_s = setup cfg ~bin sessions in
    let cements () = Wire.scrape_value (Wire.scrape w) "store_cements" in
    (* Each step starts with the generator's heap settled: its collector
       would otherwise work off, in the middle of a step, what the
       previous replica's offline re-plans and checks allocated, and a
       late read of a reply counts in that frame's latency. *)
    let counted f =
      Gc.full_major ();
      let c0 = cements () in
      let p = f () in
      (p, cements () -. c0)
    in
    let light =
      counted (fun () ->
          Wire.open_loop w k ~label:"light" ~ticks:cfg.ticks ~rate:cfg.light_rate
            ~ops:cfg.light_ops)
    in
    let heavy =
      counted (fun () ->
          Wire.open_loop w k ~label:"heavy" ~ticks:cfg.ticks ~rate:cfg.heavy_rate
            ~ops:cfg.heavy_ops)
    in
    let closed =
      counted (fun () ->
          Wire.closed_loop w k ~label:"closed"
            ~per_session:(2 * per_session cfg cfg.closed_feeds)
            ~feeds:cfg.closed_feeds ())
    in
    let rss_mb = Wire.peak_rss_mb (Server.Spawn.pid d) in
    let lat (p, _) = p.Wire.latency_ms in
    let tail a = Stat.quantile a (Stat.tail_q (n * Array.length a)) in
    Stat.note "replica %d: light p50 %.3f tail %.3f  heavy p50 %.3f tail %.3f ms  closed %.0f slots/s"
      (part + 1) (Stat.median (lat light)) (tail (lat light)) (Stat.median (lat heavy))
      (tail (lat heavy))
      (let c = fst closed in float_of_int c.Wire.slots /. c.Wire.elapsed_s);
    Wire.disconnect w;
    Wire.kill d;
    plan_all sessions ~fails:plan_fails ~ms:plan_ms;
    let acked_at_kill = Array.copy w.Wire.acked in
    let recoveries =
      List.init cfg.recoveries (fun i ->
          let t0 = Stat.now () in
          let d =
            Wire.spawn ~bin ~resume:true ~log:(Printf.sprintf "daemon-recovered-%d-%d.log" part i)
          in
          Wire.attach w d ~n_conns:2;
          let s = Stat.now () -. t0 in
          Wire.disconnect w;
          Wire.kill d;
          (s, w.Wire.reattached))
    in
    ( { w; acked_at_kill; reattached = List.concat_map snd recoveries },
      setup_s, prefill, light, heavy, closed, List.map fst recoveries, rss_mb )
  in
  let runs = List.init n one in
  let get f = List.map f runs in
  let phases f label = Wire.merge label (get (fun r -> fst (f r))) in
  let count f = List.fold_left ( +. ) 0. (get (fun r -> snd (f r))) in
  let light (_, _, _, l, _, _, _, _) = l and heavy (_, _, _, _, h, _, _, _) = h in
  let closed (_, _, _, _, _, c, _, _) = c in
  let replicas = get (fun (r, _, _, _, _, _, _, _) -> r) in
  let light_p = phases light "light" and heavy_p = phases heavy "heavy" in
  let closed_p = get (fun r -> fst (closed r)) in
  let prefill = Wire.merge "prefill" (get (fun (_, _, p, _, _, _, _, _) -> p)) in
  let ops = List.fold_left (fun acc p -> acc + p.Wire.ops) 0 in
  { replicas;
    attempted =
      ops [ prefill; light_p; heavy_p ] + ops closed_p
      + (n * cfg.n_sessions * (1 + cfg.recoveries));
    failed = List.fold_left (fun acc r -> acc + r.w.Wire.n_errors) 0 replicas;
    setups = Array.of_list (get (fun (_, s, _, _, _, _, _, _) -> s));
    prefill; light = light_p; heavy = heavy_p; closed = closed_p;
    light_parts = get (fun r -> fst (light r)); heavy_parts = get (fun r -> fst (heavy r));
    cements = (count light, count heavy, count closed);
    recover_s = Array.of_list (List.concat (get (fun (_, _, _, _, _, _, r, _) -> r)));
    rss_mb = Array.of_list (get (fun (_, _, _, _, _, _, _, m) -> m));
    plan_ms = Array.map Stat.Samples.to_array plan_ms;
    plan_fails = !plan_fails }

(* A latency figure of one open-loop phase, the median or the tail
   percentile that the phase's frame count over all replicas gives.
   With [per_replica] it is the median of the replicas' own figures at
   that percentile: one replica that ran through a stretch of host
   contention moves it less than it moves the pooled frames, whose p99
   that replica's longer stalls can fill on their own.  Otherwise it is
   the figure of every replica's frames pooled. *)
let latency cfg parts (merged : Wire.phase) ~tail =
  let q = if tail then Stat.tail_q (Array.length merged.Wire.latency_ms) else 0.5 in
  if cfg.per_replica then
    Stat.median
      (Array.of_list (List.map (fun (p : Wire.phase) -> Stat.quantile p.Wire.latency_ms q) parts))
  else Stat.quantile merged.Wire.latency_ms q

(* The generator fell behind its schedule when it sent half its frames
   more than 1 ms late, or any frame more than 100 ms late. *)
let behind (p : Wire.phase) =
  p.Wire.lag_ms <> [||]
  && (Stat.median p.Wire.lag_ms > 1. || Stat.quantile p.Wire.lag_ms 1. > 100.)

let describe ?rate (p : Wire.phase) =
  let lat = p.Wire.latency_ms and lag = p.Wire.lag_ms in
  let n = Array.length lat in
  let q a x = if a = [||] then 0. else Stat.quantile a x in
  Stat.note
    "phase %-7s ops %6d failed %d  %7d slots in %6.3f s (%.0f/s)  latency p50 %.3f p%.0f %.3f \
     max %.3f ms over %d frames (%d beyond)%s"
    p.Wire.label p.Wire.ops p.Wire.op_failures p.Wire.slots p.Wire.elapsed_s
    (float_of_int p.Wire.slots /. p.Wire.elapsed_s)
    (q lat 0.5) (100. *. Stat.tail_q n) (Stat.tail lat) (q lat 1.) n
    (int_of_float (float_of_int n *. (1. -. Stat.tail_q n)))
    (match rate with
    | None -> ""
    | Some rate ->
        Printf.sprintf "  offered %.0f/s, generator lag p50 %.3f p99 %.3f max %.3f ms%s" rate
          (q lag 0.5) (q lag 0.99) (q lag 1.)
          (if behind p then "  BEHIND SCHEDULE" else ""))

(* Run [f] on every index in [0, n) across two domains (the generator
   and the daemon are idle by then), results in index order. *)
let par_init n f =
  let half = (n + 1) / 2 in
  let other = Domain.spawn (fun () -> Array.init (n - half) (fun i -> f (half + i))) in
  let mine = Array.init half f in
  Array.append mine (Domain.join other)

(* Every output check on a finished timed run.  Every replica feeds
   each session the same trace from slot 0, so one oracle per session
   serves them all, and the cost bound is checked on the longest served
   prefix (every served decision equals the oracle's). *)
let check cfg (r : timed) =
  let sessions = (List.hd r.replicas).w.Wire.sessions in
  let per =
    par_init (Array.length sessions) (fun i ->
        let s = sessions.(i) in
        let n = List.fold_left (fun acc rep -> max acc rep.w.Wire.next_seq.(i)) 0 r.replicas in
        match Checks.oracle s ~n with
        | Error m -> [ s.Inputs.id ^ ": oracle: " ^ m ]
        | Ok oracle ->
            List.concat_map
              (fun rep ->
                let served = Array.sub rep.w.Wire.decided.(i) 0 rep.w.Wire.next_seq.(i) in
                let oracle = Array.sub oracle 0 (Array.length served) in
                let fails = Checks.decisions s ~served ~oracle in
                (if fails = [] then Checks.feasible s ~served else fails)
                @ List.concat_map
                    (fun (sess, acked, state) ->
                      if sess = i then Checks.snapshot s ~acked ~state ~oracle else [])
                    rep.w.Wire.snapshots)
              r.replicas
            @ fst (Checks.ratio s ~served:oracle))
  in
  let recovery =
    List.concat_map
      (fun rep ->
        let re = rep.reattached in
        (if List.length re = cfg.recoveries * Array.length sessions then []
         else [ "not every session re-attached" ])
        @ List.concat_map
            (fun (sess, fed) -> Checks.recovered sessions.(sess) ~acked:rep.acked_at_kill.(sess) ~fed)
            re)
      r.replicas
  in
  recovery @ List.concat (Array.to_list per) @ r.plan_fails

(* Saturation: every closed slice's feed replies cut in two equal
   halves, the median of the halves' rates.  On the fleet each half is
   exactly one cement cycle of records, so every half carries one cement
   stall. *)
let sat_rate cfg closed =
  let halves (p : Wire.phase) =
    let d = p.Wire.done_at in
    let half = Array.length d / 2 in
    if half = 0 then []
    else
      [ float_of_int (half * cfg.frame) /. d.(half - 1);
        float_of_int (half * cfg.frame) /. (d.((2 * half) - 1) -. d.(half - 1)) ]
  in
  Stat.median (Array.of_list (List.concat_map halves closed))
