(* Each output check is run on clean outputs, where it must pass, and
   on the same outputs with one value corrupted, where it must fail. *)

let cases = ref 0
let bad = ref 0

let expect what ~clean ~corrupted =
  incr cases;
  match (clean, corrupted) with
  | [], _ :: _ -> Stat.note "selftest ok    %-40s caught: %s" what (List.hd corrupted)
  | _ :: _, _ ->
      incr bad;
      Stat.note "selftest FAIL  %-40s rejects clean outputs: %s" what (List.hd clean)
  | [], [] ->
      incr bad;
      Stat.note "selftest FAIL  %-40s misses the corruption" what

let copy_schedule s = Array.map Array.copy s

let run () =
  let sessions =
    [| Inputs.session ~seed:7 ~index:0 ~scenario:"cpu-gpu" ~len:96;
       Inputs.session ~seed:7 ~index:1 ~scenario:"spot-market" ~len:96;
       Inputs.session ~seed:7 ~index:2 ~scenario:"large-fleet" ~len:16 |]
  in
  Array.iter
    (fun (s : Inputs.session) ->
      let n = Array.length s.Inputs.trace in
      let oracle = match Checks.oracle s ~n with Ok o -> o | Error m -> failwith m in
      let served = copy_schedule oracle in
      (* flip one served decision *)
      let flipped = copy_schedule served in
      let slot = n / 2 in
      flipped.(slot).(0) <- (if flipped.(slot).(0) > 0 then flipped.(slot).(0) - 1 else 1);
      expect (s.Inputs.id ^ " decision = oracle")
        ~clean:(Checks.decisions s ~served ~oracle)
        ~corrupted:(Checks.decisions s ~served:flipped ~oracle);
      (* a configuration below the slot's load *)
      let starved = copy_schedule served in
      let busiest = ref 0 in
      Array.iteri (fun t v -> if v > s.Inputs.trace.(!busiest) then busiest := t) s.Inputs.trace;
      starved.(!busiest) <- Array.make (Array.length starved.(!busiest)) 0;
      expect (s.Inputs.id ^ " feasibility")
        ~clean:(Checks.feasible s ~served)
        ~corrupted:(Checks.feasible s ~served:starved);
      (* a served cost pushed just past the competitive bound *)
      let clean, (cost, opt, bound) = Checks.ratio s ~served in
      expect (s.Inputs.id ^ " cost <= bound x OPT") ~clean
        ~corrupted:
          (Checks.within_bound s.Inputs.id ~cost:(Float.max cost (bound *. opt *. 1.001)) ~opt ~bound);
      (* a re-attached session that lost its last acknowledged slot *)
      expect (s.Inputs.id ^ " recovery count")
        ~clean:(Checks.recovered s ~acked:n ~fed:n)
        ~corrupted:(Checks.recovered s ~acked:n ~fed:(n - 1));
      (* a snapshot whose history carries a flipped decision *)
      let snap served =
        match
          Server.Session.create ~id:s.Inputs.id
            { Server.Session.scenario = s.Inputs.scenario; max_horizon = None; alg = None }
        with
        | Error (_, m) -> failwith m
        | Ok sess ->
            ignore (Server.Session.feed sess ~seq:0 s.Inputs.trace);
            let state = Server.Session.save sess in
            let rec swap = function
              | Util.Sexp.List (Util.Sexp.Atom "history" :: rows) ->
                  Util.Sexp.List
                    (Util.Sexp.Atom "history"
                    :: List.mapi
                         (fun t row ->
                           if t = slot then Util.Snapshot.int_array_field "x" served.(t) else row)
                         rows)
              | Util.Sexp.List l -> Util.Sexp.List (List.map swap l)
              | a -> a
            in
            Util.Sexp.to_string (swap state)
      in
      expect (s.Inputs.id ^ " snapshot = oracle")
        ~clean:(Checks.snapshot s ~acked:n ~state:(snap served) ~oracle)
        ~corrupted:(Checks.snapshot s ~acked:n ~state:(snap flipped) ~oracle))
    sessions;
  (* plans: perturb one reported cost, break availability, break the
     approximation order *)
  let tvs = Inputs.tvs_instance ~seed:7 ~horizon:48 in
  let plan = Inputs.plan_instance ~seed:7 ~horizon:48 in
  let exact = Offline.Dp.solve_optimal plan in
  let approx = Offline.Dp.solve_approx ~eps:Inputs.eps plan in
  let tvs_plan = Offline.Dp.solve_optimal tvs in
  expect "plan cost = Cost.schedule"
    ~clean:(Checks.plan "exact" plan exact)
    ~corrupted:(Checks.plan "exact" plan { exact with Offline.Dp.cost = exact.Offline.Dp.cost *. (1. +. 1e-6) });
  let over = copy_schedule tvs_plan.Offline.Dp.schedule in
  over.(48 / 8).(0) <- 60;
  expect "plan respects per-slot availability"
    ~clean:(Checks.plan "tvs" tvs tvs_plan)
    ~corrupted:(Checks.plan "tvs" tvs { Offline.Dp.schedule = over; cost = Model.Cost.schedule tvs over });
  expect "exact <= approx <= 1.25 exact"
    ~clean:(Checks.approx ~eps:Inputs.eps ~exact:exact.Offline.Dp.cost ~approx:approx.Offline.Dp.cost)
    ~corrupted:(Checks.approx ~eps:Inputs.eps ~exact:exact.Offline.Dp.cost
                  ~approx:(1.3 *. exact.Offline.Dp.cost));
  Stat.note "selftest: %d of %d checks behave" (!cases - !bad) !cases;
  if !bad = 0 then 0 else 1
