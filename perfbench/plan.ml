(* offline-plan: the Section 4 planner in-process and sequential, no
   server in the way.  A plan request is one of three solves on the
   large fleet — the exact DP (Section 4.1), the (1 + eps) grids of
   Theorem 16 with eps = 0.25 (Section 4.2), and the exact DP with
   per-slot availability (Section 4.3) — over a seeded diurnal trace. *)

let horizon = 240
let eps = Inputs.eps

type kind = Exact | Approx | Tvs

let kinds = [| Exact; Approx; Tvs |]
let kind_name = function Exact -> "exact" | Approx -> "approx" | Tvs -> "tvs"

type instances = { plan : Model.Instance.t; tvs : Model.Instance.t }

let instances ~seed =
  { plan = Inputs.plan_instance ~seed ~horizon; tvs = Inputs.tvs_instance ~seed ~horizon }

let instance insts = function Exact | Approx -> insts.plan | Tvs -> insts.tvs

let solve insts = function
  | Exact -> Offline.Dp.solve_optimal insts.plan
  | Approx -> Offline.Dp.solve_approx ~eps insts.plan
  | Tvs -> Offline.Dp.solve_optimal insts.tvs

(* Set-up: build the instances and run each kind once, so the timed
   phases see warm allocations. *)
let setup ~seed =
  let t0 = Stat.now () in
  let insts = instances ~seed in
  let first = Array.map (solve insts) kinds in
  (insts, first, Stat.now () -. t0)

type timed = {
  setups : float array;
  solve_ms : float array array;       (* per kind, closed loop *)
  closed_slots : int;
  closed_s : float;
  light : float array;                (* latency per request, ms *)
  heavy : float array;
  light_lag : float array;
  heavy_lag : float array;
  recover : float array;              (* resume-from-frontier times, s *)
  rss_mb : float;
  failures : string list;
  attempted : int;
}

(* One rotation of the three full solves takes about this long on a
   2-core virtual machine; it only sizes the closed loop's fixed number of
   rotations from --seconds. *)
let ref_cycle_s = 0.75

(* The open-loop phases send re-plan requests: the exact plan of a
   12-slot window of the trace, at a rotating offset.  One kind only, so
   the latency distribution has one mode and its median sits inside it. *)
let window = 12
let open_rate_light = 25.  (* plan requests per second *)
(* About half the planner's time at ~13 ms a plan; at 50/s (70%) a
   pause of a few hundred ms on a shared host queued enough requests to
   move the heavy p95 from 17 to 94 ms between runs. *)
let open_rate_heavy = 35.

let window_instance insts j =
  Model.Instance.window insts.plan ~start:(j mod (horizon / window) * window) ~len:window

let run_timed ~seed ~seconds =
  let failures = ref [] in
  let attempted = ref 0 in
  let setups = ref [] and last = ref None in
  for _ = 1 to 3 do
    let insts, first, s = setup ~seed in
    setups := s :: !setups;
    attempted := !attempted + Array.length kinds;
    last := Some (insts, first)
  done;
  let insts, first = Option.get !last in
  (* The reference results every later solve must reproduce. *)
  Array.iteri
    (fun i k ->
      failures := !failures @ Checks.plan (kind_name k) (instance insts k) first.(i))
    kinds;
  failures :=
    !failures
    @ Checks.approx ~eps ~exact:first.(0).Offline.Dp.cost ~approx:first.(1).Offline.Dp.cost;
  let same k (r : Offline.Dp.result) =
    let ref_ = first.(match k with Exact -> 0 | Approx -> 1 | Tvs -> 2) in
    if r.Offline.Dp.cost = ref_.Offline.Dp.cost && r.Offline.Dp.schedule = ref_.Offline.Dp.schedule
    then []
    else [ kind_name k ^ ": a repeated solve returned a different plan" ]
  in
  let request k =
    incr attempted;
    let r = solve insts k in
    failures := !failures @ same k r
  in
  (* Recovery: resume the exact solve from a frontier checkpoint taken
     half-way, as [rightsizer solve --resume] does. *)
  let path = "frontier.ckpt" in
  let saved = ref false in
  ignore
    (Offline.Dp.solve insts.plan ~on_layer:(fun ~time frontier ->
         if time = (horizon / 2) - 1 then
           match
             Util.Snapshot.save ~path ~kind:"dp-frontier"
               (Offline.Dp.frontier_to_sexp (frontier ()))
           with
           | Ok () -> saved := true
           | Error e -> failures := !failures @ [ Util.Snapshot.error_to_string e ]));
  let resume () =
    incr attempted;
    let r, s =
      Stat.timed (fun () ->
          match Util.Snapshot.load ~kind:"dp-frontier" ~path () with
          | Error e -> Error (Util.Snapshot.error_to_string e)
          | Ok sexp ->
              Result.map
                (fun f -> Offline.Dp.solve ~resume:f insts.plan)
                (Offline.Dp.frontier_of_sexp sexp))
    in
    (match r with
    | Ok r -> failures := !failures @ same Exact r
    | Error m -> failures := !failures @ [ "resume: " ^ m ]);
    s
  in
  (* Open loop: request [j] is due at [t0 + j / rate]; one planner
     serves them in order, so a slow plan delays the ones behind it. *)
  let open_loop rate ~first ~n =
    let lat = Array.make n 0. and lag = Array.make n 0. in
    (* Settle the heap first, so the collection the closed loop's large
       solves leave owing is not paid by this slice's first requests. *)
    Gc.full_major ();
    let t0 = Stat.now () in
    let plans = ref [] in
    for j = 0 to n - 1 do
      let due = t0 +. (float_of_int j /. rate) in
      let now = Stat.now () in
      if now < due then Unix.sleepf (due -. now);
      lag.(j) <- Float.max 0. (Stat.now () -. due) *. 1000.;
      incr attempted;
      let inst = window_instance insts (first + j) in
      let r = Offline.Dp.solve_optimal inst in
      lat.(j) <- (Stat.now () -. due) *. 1000.;
      plans := (inst, r) :: !plans
    done;
    List.iter (fun (inst, r) -> failures := !failures @ Checks.plan "window" inst r) !plans;
    (lat, lag)
  in
  (* The phases run in [rounds] alternating slices — one rotation of the
     three full solves (the closed loop), a light slice, a heavy slice
     and one resume — so each figure spans the run: the CPU's speed
     wanders from one stretch of seconds to the next on a shared
     machine. *)
  let rounds = max 3 (int_of_float (Float.round (seconds *. 0.3 /. ref_cycle_s))) in
  let n_light = int_of_float (open_rate_light *. seconds *. 0.35) in
  let n_heavy = int_of_float (open_rate_heavy *. seconds *. 0.35) in
  let slice total r = (total * (r + 1) / rounds) - (total * r / rounds) in
  let solve_ms = Array.map (fun _ -> Stat.Samples.create ()) kinds in
  let closed_s = ref 0. and recover = ref [] in
  let light = ref [] and heavy = ref [] in
  Gc.full_major ();
  for r = 0 to rounds - 1 do
    Array.iteri
      (fun i k ->
        let (), s = Stat.timed (fun () -> request k) in
        closed_s := !closed_s +. s;
        Stat.Samples.add solve_ms.(i) (s *. 1000.))
      kinds;
    light := open_loop open_rate_light ~first:(n_light * r / rounds) ~n:(slice n_light r) :: !light;
    heavy := open_loop open_rate_heavy ~first:(n_heavy * r / rounds) ~n:(slice n_heavy r) :: !heavy;
    recover := resume () :: !recover
  done;
  let cat parts f = Array.concat (List.rev_map f parts) in
  if not !saved then failures := !failures @ [ "no frontier checkpoint was written" ];
  { setups = Array.of_list (List.rev !setups);
    solve_ms = Array.map Stat.Samples.to_array solve_ms;
    closed_slots = rounds * Array.length kinds * horizon;
    closed_s = !closed_s;
    light = cat !light fst;
    heavy = cat !heavy fst;
    light_lag = cat !light snd;
    heavy_lag = cat !heavy snd;
    recover = Array.of_list !recover;
    rss_mb = Wire.peak_rss_mb 0;
    failures = !failures;
    attempted = !attempted }

(* The traced run: each kind solved through [Offline.Dp], and the exact
   solve's forward pass replayed layer by layer through the public
   [Dp.fill_layer] and [Transform.ramp_grid_plane] to split its time. *)
let run_traced ~seed =
  let counter = Stat.counter in
  let insts = instances ~seed in
  Array.iter (fun k -> ignore (solve insts k)) kinds;
  let cells0 = counter "dp.cells" and solves0 = counter "dp.solves" in
  let calls0 = counter "dispatch.calls" and newton0 = counter "dispatch.newton_evals" in
  let hits0 = counter "cost.rank_hits" and misses0 = counter "cost.rank_misses" in
  let gc0 = Gc.quick_stat () in
  let exact_ms =
    Stat.median
      (Array.init 3 (fun _ ->
           Array.iter (fun k -> if k <> Exact then ignore (solve insts k)) kinds;
           snd (Stat.timed (fun () -> solve insts Exact)) *. 1000.))
  in
  let gc1 = Gc.quick_stat () in
  let f name c0 = float_of_int (counter name - c0) in
  let slots = float_of_int (3 * Array.length kinds * horizon) in
  let calls = f "dispatch.calls" calls0 in
  let hits = f "cost.rank_hits" hits0 and misses = f "cost.rank_misses" misses0 in
  let inst = Model.Instance.fold_switching insts.plan in
  let grid = Offline.Grid.dense (Model.Instance.counts inst) in
  let betas = Array.map (fun st -> st.Model.Server_type.switching_cost) inst.Model.Instance.types in
  let n = Offline.Grid.size grid in
  let fill_total = Stat.Samples.create () and ramp_total = Stat.Samples.create () in
  let fill_us = Stat.Samples.create () and ramp_us = Stat.Samples.create () in
  for _ = 1 to 3 do
    let cache = Model.Cost.make_cache inst in
    let arena = Offline.Plane.create (horizon * n) in
    Offline.Plane.fill_range arena ~off:0 ~len:n 0.;
    let fills = ref 0. and ramps = ref 0. in
    for time = 0 to horizon - 1 do
      let t0 = Stat.now () in
      let ops = Offline.Dp.fill_layer cache grid ~time in
      let s = Stat.us_since t0 in
      fills := !fills +. s;
      Stat.Samples.add fill_us s;
      if time > 0 then begin
        Offline.Plane.blit ~src:arena ~soff:((time - 1) * n) ~dst:arena ~doff:(time * n) ~len:n;
        let t0 = Stat.now () in
        Offline.Transform.ramp_grid_plane ~ops ~grid ~betas arena ~off:(time * n);
        let s = Stat.us_since t0 in
        ramps := !ramps +. s;
        Stat.Samples.add ramp_us s
      end
    done;
    Stat.Samples.add fill_total !fills;
    Stat.Samples.add ramp_total !ramps
  done;
  let fills_ms = Stat.median (Stat.Samples.to_array fill_total) /. 1000. in
  let ramps_ms = Stat.median (Stat.Samples.to_array ramp_total) /. 1000. in
  Stat.note "traced: exact solve %.2f ms = fills %.2f + ramps %.2f + rest" exact_ms fills_ms ramps_ms;
  let m name unit_ value = { Stat.name; unit_; value } in
  [ m "dp.fill_layer_us" "us" (Stat.median (Stat.Samples.to_array fill_us));
    m "transform.ramp_us" "us" (Stat.median (Stat.Samples.to_array ramp_us));
    m "dp.residual_ms" "ms" (exact_ms -. fills_ms -. ramps_ms);
    m "dispatch.calls_per_decision" "count" (Stat.ratio calls slots);
    m "dispatch.newton_evals_per_call" "count" (Stat.ratio (f "dispatch.newton_evals" newton0) calls);
    m "dp.cells_per_solve" "count"
      (Stat.ratio (f "dp.cells" cells0) (f "dp.solves" solves0));
    m "cost.rank_hit_ratio" "ratio" (Stat.ratio hits (hits +. misses));
    m "gc.minor_words_per_decision" "words"
      (Stat.ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) slots);
    m "gc.major_collections" "count" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) ]
