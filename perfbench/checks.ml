(* Output checks.  Each returns the list of what it found wrong (empty
   when the outputs pass); the reference values are computed apart from
   the serving path — an in-process [Server.Session] fed the same trace,
   the offline optimum, the cost model — or are properties the method
   must have. *)

let cfg_str = Model.Config.to_string

(* The decisions an in-process session makes on the first [n] slots of
   the session's trace: the sequential oracle. *)
let oracle (s : Inputs.session) ~n =
  match
    Server.Session.create ~id:s.Inputs.id
      { Server.Session.scenario = s.Inputs.scenario; max_horizon = None; alg = None }
  with
  | Error (_, m) -> Error m
  | Ok sess -> (
      match Server.Session.feed sess ~seq:0 (Array.sub s.Inputs.trace 0 n) with
      | Ok configs -> Ok configs
      | Error (_, m) -> Error m)

(* Every served decision equals the oracle's. *)
let decisions (s : Inputs.session) ~(served : Model.Config.t array) ~(oracle : Model.Config.t array) =
  let bad = ref [] in
  Array.iteri
    (fun slot x ->
      if List.length !bad < 3 then
        if slot >= Array.length served || served.(slot) = [||] then
          bad := Printf.sprintf "%s slot %d: no decision served" s.Inputs.id slot :: !bad
        else if not (Model.Config.equal served.(slot) x) then
          bad :=
            Printf.sprintf "%s slot %d: served %s, oracle %s" s.Inputs.id slot
              (cfg_str served.(slot)) (cfg_str x)
            :: !bad)
    oracle;
  List.rev !bad

let violations what inst schedule =
  List.map
    (fun v -> Format.asprintf "%s: %a" what Model.Schedule.pp_violation v)
    (Model.Schedule.check inst schedule)
  |> List.filteri (fun i _ -> i < 3)

(* Every configuration is feasible for its slot's load and fleet. *)
let feasible (s : Inputs.session) ~(served : Model.Config.t array) =
  let n = Array.length served in
  violations s.Inputs.id (Inputs.served_instance s ~n) served

(* [cost] is within [bound] times [opt]. *)
let within_bound id ~cost ~opt ~bound =
  if cost <= (bound *. opt *. (1. +. 1e-9)) +. 1e-9 then []
  else [ Printf.sprintf "%s: cost %.6g > %.3g x OPT %.6g" id cost bound opt ]

(* The served schedule's cost is within the paper's competitive bound
   of the offline optimum on the same trace.  Returns the failures and
   (cost, OPT, bound). *)
let ratio (s : Inputs.session) ~(served : Model.Config.t array) =
  let inst = Inputs.served_instance s ~n:(Array.length served) in
  let cost = Model.Cost.schedule inst served in
  let opt = (Offline.Dp.solve_optimal inst).Offline.Dp.cost in
  let bound =
    Online.Harness.competitive_bound inst
      ~algorithm:(match s.Inputs.alg with Inputs.A -> `A | Inputs.B -> `B)
  in
  (within_bound s.Inputs.id ~cost ~opt ~bound, (cost, opt, bound))

(* A re-attached session reports exactly the slots acknowledged before
   the daemon was killed. *)
let recovered (s : Inputs.session) ~acked ~fed =
  if fed = acked then []
  else [ Printf.sprintf "%s: re-attached with %d slots, %d were acknowledged" s.Inputs.id fed acked ]

(* A query-snapshot state restores to a session that holds at least the
   slots acknowledged when it was asked for, with the oracle's
   decisions. *)
let snapshot (s : Inputs.session) ~acked ~state ~(oracle : Model.Config.t array) =
  match Result.bind (Util.Sexp.parse state) Server.Session.of_sexp with
  | Error m -> [ Printf.sprintf "%s: snapshot does not restore: %s" s.Inputs.id m ]
  | Ok sess ->
      let fed = Server.Session.fed sess in
      if fed < acked then
        [ Printf.sprintf "%s: snapshot holds %d slots, %d were acknowledged" s.Inputs.id fed acked ]
      else if fed > Array.length oracle then
        [ Printf.sprintf "%s: snapshot holds %d slots, only %d were fed" s.Inputs.id fed
            (Array.length oracle) ]
      else decisions s ~served:(Server.Session.decisions_from sess ~from_:0)
          ~oracle:(Array.sub oracle 0 fed)

(* A plan's reported cost is the cost model's price of its schedule, and
   the schedule is feasible (per-slot availability included). *)
let plan what inst (r : Offline.Dp.result) =
  let priced = Model.Cost.schedule inst r.Offline.Dp.schedule in
  let cost_ok =
    Float.abs (priced -. r.Offline.Dp.cost) <= 1e-9 *. Float.max 1. (Float.abs priced)
  in
  (if cost_ok then []
   else [ Printf.sprintf "%s: reported cost %.17g, schedule costs %.17g" what r.Offline.Dp.cost priced ])
  @ (if Model.Schedule.horizon r.Offline.Dp.schedule = Model.Instance.horizon inst then []
     else [ what ^ ": schedule length differs from the horizon" ])
  @ violations what inst r.Offline.Dp.schedule

(* exact <= approx <= (1 + eps) exact (Theorem 16). *)
let approx ~eps ~exact ~approx =
  if exact <= approx *. (1. +. 1e-9) && approx <= (1. +. eps) *. exact *. (1. +. 1e-9) then []
  else [ Printf.sprintf "plan costs: exact %.17g, approx %.17g break exact <= approx <= %.2f x exact" exact approx (1. +. eps) ]
