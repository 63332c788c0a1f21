(* The traced run of the served workloads.  It feeds one replica's
   generated requests in-process through each layer's public functions
   and times every call; nothing inside the program is instrumented.
   One replica over the wire supplies the light p50 that [residual_us]
   is taken from, the closed-loop time per decision, and the daemon's
   own counters through its [metrics] scrape. *)

module P = Server.Protocol
module C = Server.Codec

(* A replica's request sequence: creates, the set-up's frames, then its
   light and heavy steps (operation [k] of a step goes to session
   [k mod n], every [query_every]-th is a query); the closed step, whose
   order depends on timing, is left out. *)
let requests (cfg : Serve.cfg) (sessions : Inputs.session array) =
  let n = Array.length sessions in
  let next = Array.make n 0 in
  let out = ref [] in
  let add sess r = out := (sess, r) :: !out in
  let feed sess frame =
    let s = sessions.(sess) in
    let seq = next.(sess) in
    next.(sess) <- seq + frame;
    add sess (P.Feed { id = s.Inputs.id; seq; loads = Array.sub s.Inputs.trace seq frame })
  in
  Array.iteri
    (fun i (s : Inputs.session) ->
      add i (P.Create_session { id = s.Inputs.id; scenario = s.Inputs.scenario; max_horizon = None; alg = None }))
    sessions;
  for _ = 1 to cfg.Serve.prefill_slots / Serve.prefill_frame do
    for sess = 0 to n - 1 do
      feed sess Serve.prefill_frame
    done
  done;
  List.iter
    (fun ops ->
      for k = 0 to ops - 1 do
        let sess = k mod n in
        if k mod cfg.Serve.query_every = cfg.Serve.query_every - 1 then
          add sess (P.Query_snapshot { id = sessions.(sess).Inputs.id })
        else feed sess cfg.Serve.frame
      done)
    [ cfg.Serve.light_ops; cfg.Serve.heavy_ops ];
  (Array.of_list (List.rev !out), next)

(* Per-frame timings of one layer; [nan] where the layer did no work. *)
let frames n = Array.make n nan

let med a = Stat.median (Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list a)))

(* The wire half: one replica's steps against a fresh daemon, then the
   daemon's counters. *)
let wire_part (cfg : Serve.cfg) ~bin sessions =
  let d, w, _pre, _setup = Serve.setup cfg ~bin sessions in
  let k = Serve.kind cfg in
  let light =
    Wire.open_loop w k ~label:"light" ~ticks:cfg.Serve.ticks ~rate:cfg.Serve.light_rate
      ~ops:cfg.Serve.light_ops
  in
  ignore
    (Wire.open_loop w k ~label:"heavy" ~ticks:cfg.Serve.ticks ~rate:cfg.Serve.heavy_rate
       ~ops:cfg.Serve.heavy_ops);
  let closed = Wire.closed_loop w k ~label:"closed" ~feeds:cfg.Serve.closed_feeds () in
  let body = Wire.scrape w in
  let base_mb =
    float_of_int (Unix.stat (Store.Cemented.base_path ~dir:Wire.store_dir)).Unix.st_size /. 1048576.
  in
  Wire.disconnect w;
  Wire.kill d;
  (light, closed, body, base_mb)

let run (cfg : Serve.cfg) ~bin ~seed =
  let sessions = Serve.sessions cfg ~seed in
  let light, closed, body, base_mb = wire_part cfg ~bin sessions in
  let light_p50_us = Stat.median light.Wire.latency_ms *. 1000. in
  let reqs, fed = requests cfg sessions in
  let nreq = Array.length reqs in
  (* --- request path (codec, protocol, Daemon.handle on an in-process
     daemon with its own store) and, request by request just before it,
     the shadows: sessions fed the same frames through Session.feed, and
     a store fed the records the daemon appends (one per stepped frame),
     cemented at the same record count with the table as the base.
     Alternating the two keeps their heaps and caches alike, so the
     shadow times can be taken out of Daemon.handle's. ----------------- *)
  Wire.rm_rf "traced-store";
  let d =
    match
      Server.Daemon.create
        { Server.Daemon.default_config with unix_path = Some "traced.sock"; log_dir = Some "traced-store" }
    with
    | Ok d -> d
    | Error m -> Wire.fail "traced daemon: %s" m
  in
  Wire.rm_rf "traced-shadow";
  Unix.mkdir "traced-shadow" 0o755;
  let writer =
    match Store.Log.open_writer ~path:(Store.Cemented.tail_path ~dir:"traced-shadow") () with
    | Ok (w, _) -> w
    | Error m -> Wire.fail "traced store: %s" m
  in
  let decode = frames nreq and parse = frames nreq and handle = frames nreq in
  let render = frames nreq and encode = frames nreq in
  let feed = frames nreq and append = frames nreq and flush = frames nreq in
  let cemented = Array.make nreq false in
  let shadow = Hashtbl.create 64 in
  let save_ms = ref [] and cement_ms = ref [] in
  let table () =
    let all = Hashtbl.fold (fun _ s acc -> s :: acc) shadow [] in
    let sorted = List.sort (fun a b -> compare (Server.Session.id a) (Server.Session.id b)) all in
    Util.Sexp.List (Util.Sexp.Atom "sessions" :: List.map Server.Session.save sorted)
  in
  let log_append i r =
    let t0 = Stat.now () in
    Store.Log.append writer r;
    append.(i) <- Stat.us_since t0;
    let t0 = Stat.now () in
    (match Store.Log.flush writer with Ok () -> () | Error m -> Wire.fail "traced flush: %s" m);
    flush.(i) <- Stat.us_since t0;
    if Store.Log.records_on_disk writer >= Serve.cement_every then begin
      cemented.(i) <- true;
      let base, s = Stat.timed table in
      save_ms := (s *. 1000.) :: !save_ms;
      let records =
        match Store.Log.read ~path:(Store.Cemented.tail_path ~dir:"traced-shadow") with
        | Ok scan -> scan.Store.Log.records
        | Error m -> Wire.fail "traced read: %s" m
      in
      let r, s = Stat.timed (fun () -> Store.Cemented.cement ~dir:"traced-shadow" ~base ~records ()) in
      (match r with Ok _ -> () | Error m -> Wire.fail "traced cement: %s" m);
      cement_ms := (s *. 1000.) :: !cement_ms;
      match Store.Log.reset writer with Ok () -> () | Error m -> Wire.fail "traced reset: %s" m
    end
  in
  let shadow_step i (sess, r) =
    let s = sessions.(sess) in
    match r with
    | P.Create_session { id; scenario; max_horizon; alg } ->
        (match Server.Session.create ~id { Server.Session.scenario; max_horizon; alg } with
        | Ok ss -> Hashtbl.replace shadow id ss
        | Error (_, m) -> Wire.fail "traced: %s" m);
        log_append i
          (Store.Log.Create
             { id; scenario; max_horizon; alg;
               alg_used = (match s.Inputs.alg with Inputs.A -> "a" | Inputs.B -> "b") })
    | P.Feed { id; seq; loads } ->
        let ss = Hashtbl.find shadow id in
        let t0 = Stat.now () in
        (match Server.Session.feed ss ~seq loads with
        | Ok _ -> ()
        | Error (_, m) -> Wire.fail "traced feed: %s" m);
        feed.(i) <- Stat.us_since t0;
        log_append i (Store.Log.Feed { id; seq; loads })
    | _ -> ()
  in
  let minor_words = ref 0. and major_collections = ref 0 in
  let decisions = ref 0 in
  Array.iteri
    (fun i (sess, r) ->
      shadow_step i (sess, r);
      let gc0 = Gc.quick_stat () in
      let wire = C.encode (P.request_to_sexp r) in
      let dec = C.decoder () in
      let t0 = Stat.now () in
      C.feed_string dec wire;
      let sexp = match C.next dec with Ok (Some s) -> s | _ -> Wire.fail "traced: decode" in
      decode.(i) <- Stat.us_since t0;
      let t0 = Stat.now () in
      let req = match P.request_of_sexp sexp with Ok q -> q | Error m -> Wire.fail "traced: %s" m in
      parse.(i) <- Stat.us_since t0;
      let cements0 = Stat.counter "store.cements" in
      let t0 = Stat.now () in
      let resp = Server.Daemon.handle d req in
      handle.(i) <- Stat.us_since t0;
      if Stat.counter "store.cements" <> cements0 then cemented.(i) <- true;
      (match resp with
      | P.Decisions { configs; _ } -> decisions := !decisions + Array.length configs
      | P.Error { msg; _ } -> Wire.fail "traced: %s" msg
      | _ -> ());
      let t0 = Stat.now () in
      let rs = P.response_to_sexp resp in
      render.(i) <- Stat.us_since t0;
      let t0 = Stat.now () in
      ignore (C.encode rs);
      encode.(i) <- Stat.us_since t0;
      let gc1 = Gc.quick_stat () in
      minor_words := !minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
      major_collections :=
        !major_collections + (gc1.Gc.major_collections - gc0.Gc.major_collections))
    reqs;
  let recover_ms =
    Stat.median
      (Array.init 3 (fun _ ->
           snd (Stat.timed (fun () -> Store.Cemented.recover ~dir:"traced-store")) *. 1000.))
  in
  let final_save_ms = Stat.median (Array.init 3 (fun _ -> snd (Stat.timed table) *. 1000.)) in
  Store.Log.close_writer writer;
  (* --- the online DP: Prefix_opt.step and Stepper.step per slot, and
     inside the step, Dp.fill_layer and Transform.ramp_grid_plane ------ *)
  let step_us = Stat.Samples.create () and stepper_us = Stat.Samples.create () in
  let calls0 = Stat.counter "dispatch.calls" and newton0 = Stat.counter "dispatch.newton_evals" in
  let hits0 = Stat.counter "cost.rank_hits" and misses0 = Stat.counter "cost.rank_misses" in
  let slots = ref 0 in
  Array.iteri
    (fun i (s : Inputs.session) ->
      let inst = Inputs.served_instance s ~n:fed.(i) in
      let engine = Online.Prefix_opt.create inst in
      let stepper =
        match s.Inputs.alg with Inputs.A -> Online.Stepper.alg_a inst | Inputs.B -> Online.Stepper.alg_b inst
      in
      for time = 0 to fed.(i) - 1 do
        let t0 = Stat.now () in
        let { Online.Prefix_opt.last = hat; _ } = Online.Prefix_opt.step engine in
        Stat.Samples.add step_us (Stat.us_since t0);
        let t0 = Stat.now () in
        ignore (Online.Stepper.step stepper ~time ~hat);
        Stat.Samples.add stepper_us (Stat.us_since t0);
        incr slots
      done)
    sessions;
  let calls = float_of_int (Stat.counter "dispatch.calls" - calls0) in
  let newton = float_of_int (Stat.counter "dispatch.newton_evals" - newton0) in
  let hits = float_of_int (Stat.counter "cost.rank_hits" - hits0) in
  let misses = float_of_int (Stat.counter "cost.rank_misses" - misses0) in
  let fill_us = Stat.Samples.create () and ramp_us = Stat.Samples.create () in
  (let s = sessions.(0) in
   let inst = Model.Instance.fold_switching (Inputs.served_instance s ~n:fed.(0)) in
   let grid = Offline.Grid.dense (Model.Instance.counts inst) in
   let betas = Array.map (fun st -> st.Model.Server_type.switching_cost) inst.Model.Instance.types in
   let cache = Model.Cost.make_cache inst in
   let plane = Offline.Plane.create (Offline.Grid.size grid) in
   Offline.Plane.fill_range plane ~off:0 ~len:(Offline.Grid.size grid) 0.;
   for time = 0 to fed.(0) - 1 do
     let t0 = Stat.now () in
     let ops = Offline.Dp.fill_layer cache grid ~time in
     Stat.Samples.add fill_us (Stat.us_since t0);
     let t0 = Stat.now () in
     Offline.Transform.ramp_grid_plane ~ops ~grid ~betas plane ~off:0;
     Stat.Samples.add ramp_us (Stat.us_since t0)
   done);
  (* --- attribution -------------------------------------------------- *)
  let frame = float_of_int cfg.Serve.frame in
  let feed_frames = List.filter (fun i -> not (Float.is_nan feed.(i))) (List.init nreq Fun.id) in
  let light_frames = List.filter (fun i -> not cemented.(i)) feed_frames in
  let pick a = Stat.median (Array.of_list (List.map (fun i -> a.(i)) light_frames)) in
  let round =
    Stat.median
      (Array.of_list
         (List.map (fun i -> handle.(i) -. feed.(i) -. append.(i) -. flush.(i)) light_frames))
  in
  (* A tick's frames are served in one round with one flush, so the
     request path of the median frame holds every frame of its tick. *)
  let per_round = if cfg.Serve.ticks then float_of_int (Array.length sessions) else 1. in
  let layers =
    (per_round
    *. (pick decode +. pick parse +. round +. pick feed +. pick append +. pick render
       +. pick encode))
    +. pick flush
  in
  let m name unit_ value = { Stat.name; unit_; value } in
  let batches = Wire.scrape_value body "server_batches" in
  Stat.note "traced: %d requests, %d decisions in-process; light p50 %.1f us, layers %.1f us per frame"
    nreq !decisions light_p50_us layers;
  let per_decision =
    (pick decode +. pick parse +. round +. pick feed +. pick append +. pick render +. pick encode)
    /. frame
  in
  let closed_us = closed.Wire.elapsed_s *. 1e6 /. float_of_int closed.Wire.slots in
  Stat.note
    "traced: per decision the request-path layers (flush aside) take %.1f us; the closed loop \
     spends %.1f us per decision: %.0f%% accounted for"
    per_decision closed_us (100. *. per_decision /. closed_us);
  (match List.rev !cement_ms with
  | [] -> ()
  | first :: _ as l ->
      Stat.note "traced: %d cements, first %.1f ms, last %.1f ms (Session.save of the table \
                 before each: first %.1f ms, last %.1f ms)"
        (List.length l) first (List.hd !cement_ms) (List.nth (List.rev !save_ms) 0)
        (List.hd !save_ms));
  ( [ m "codec.decode_us" "us" (pick decode);
      m "codec.encode_us" "us" (pick encode);
      m "protocol.parse_us" "us" (pick parse);
      m "protocol.render_us" "us" (pick render);
      m "daemon.round_us" "us" round;
      m "residual_us" "us" (light_p50_us -. layers);
      m "session.feed_us" "us" (pick feed /. frame);
      m "prefix_opt.step_us" "us" (Stat.median (Stat.Samples.to_array step_us));
      m "stepper.step_us" "us" (Stat.median (Stat.Samples.to_array stepper_us));
      m "session.save_ms" "ms" final_save_ms;
      m "store.append_us" "us" (med append);
      m "store.flush_us" "us" (med flush);
      m "store.cement_ms" "ms" (match !cement_ms with [] -> 0. | l -> Stat.median (Array.of_list l));
      m "store.recover_ms" "ms" recover_ms;
      m "dp.fill_layer_us" "us" (Stat.median (Stat.Samples.to_array fill_us));
      m "transform.ramp_us" "us" (Stat.median (Stat.Samples.to_array ramp_us));
      m "dp.residual_ms" "ms" 0.;
      m "dispatch.calls_per_decision" "count" (Stat.ratio calls (float_of_int !slots));
      m "dispatch.newton_evals_per_call" "count" (Stat.ratio newton calls);
      m "dp.cells_per_solve" "count" 0.;
      m "cost.rank_hit_ratio" "ratio" (Stat.ratio hits (hits +. misses));
      m "server.sessions_per_round" "count" (Stat.ratio (Wire.scrape_value body "server_batch_size") batches);
      m "store.records_per_flush" "count"
        (Stat.ratio (Wire.scrape_value body "store_appends") (Wire.scrape_value body "store_flushes"));
      m "store.cements" "count" (Wire.scrape_value body "store_cements");
      m "store.base_mb" "MB" base_mb;
      m "gc.minor_words_per_decision" "words" (Stat.ratio !minor_words (float_of_int !decisions));
      m "gc.major_collections" "count" (float_of_int !major_collections) ],
    light )
