(* Seeded inputs.  Everything a run sends to the program is derived
   here from [--seed]; the program sees only these generated loads. *)

type alg = A | B

(* The approximation parameter of every (1 + eps) plan (Theorem 16). *)
let eps = 0.25

type session = {
  id : string;
  scenario : string;
  alg : alg;               (* the solver the daemon auto-picks for it *)
  capacity : float;
  trace : float array;     (* loads for slots 0, 1, ... *)
}

let scenario_inst name =
  match Sim.Scenarios.by_name name with
  | Some mk -> mk None
  | None -> invalid_arg ("perfbench: unknown scenario " ^ name)

(* A noisy diurnal curve between 10% and 60% of the fleet's capacity —
   every slot is feasible, and busy and quiet hours both occur. *)
let trace ~seed ~salt ~capacity ~len =
  let rng = Util.Prng.create ((seed * 1_000_003) + (salt * 7919) + 17) in
  Sim.Workload.diurnal ~noise:0.05 ~rng ~horizon:len ~period:24 ~base:(0.1 *. capacity)
    ~peak:(0.6 *. capacity) ()
  |> Sim.Workload.clamp ~lo:0. ~hi:(0.9 *. capacity)

let session ~seed ~index ~scenario ~len =
  let inst = scenario_inst scenario in
  let capacity = Model.Instance.capacity_at inst ~time:0 in
  { id = Printf.sprintf "s%03d" index;
    scenario;
    alg = (if inst.Model.Instance.time_independent then A else B);
    capacity;
    trace = trace ~seed ~salt:index ~capacity ~len }

(* The instance a session's first [n] slots define, built the way
   [Server.Session] builds its streaming instance: the scenario's types
   and cost functions, cost closures clamped into the scenario's own
   horizon, the client's loads.  The output checks price served
   schedules and solve OPT on it. *)
let served_instance s ~n =
  let base = scenario_inst s.scenario in
  let types = base.Model.Instance.types in
  let load = Array.sub s.trace 0 n in
  if base.Model.Instance.time_independent then
    Model.Instance.make_static ~types ~load
      ~fns:(Array.init (Array.length types) (fun j -> base.Model.Instance.cost ~time:0 ~typ:j))
      ()
  else begin
    let h = Model.Instance.horizon base in
    Model.Instance.make ~types ~load
      ~cost:(fun ~time ~typ -> base.Model.Instance.cost ~time:(min time (h - 1)) ~typ)
      ()
  end

(* The served instance with Section 4.3's per-slot availability: a
   third of the first type is out for the second eighth of the trace and
   half of the second type arrives only in its second half.  Loads are
   capped at 90% of each slot's available capacity. *)
let served_tvs_instance s ~n =
  let base = served_instance s ~n in
  let types = base.Model.Instance.types in
  let avail ~time ~typ =
    let m = types.(typ).Model.Server_type.count in
    match typ with
    | 0 -> if time >= n / 8 && time < n / 4 then m - (m / 3) else m
    | _ -> if time < n / 2 then m - (m / 2) else m
  in
  let load =
    Array.mapi
      (fun time v ->
        let cap = ref 0. in
        Array.iteri
          (fun typ st -> cap := !cap +. (float_of_int (avail ~time ~typ) *. st.Model.Server_type.cap))
          types;
        Float.min v (0.9 *. !cap))
      base.Model.Instance.load
  in
  Model.Instance.make ~avail ~types ~load ~cost:base.Model.Instance.cost ()

(* --- offline-plan instances ----------------------------------------- *)

(* The large fleet (d = 2, m = (60, 40), 2501 dense states per slot)
   over a seeded diurnal trace. *)
let plan_instance ~seed ~horizon =
  let base = scenario_inst "large-fleet" in
  let types = base.Model.Instance.types in
  let capacity = Model.Instance.capacity_at base ~time:0 in
  let load = trace ~seed ~salt:9001 ~capacity ~len:horizon in
  Model.Instance.make_static ~types ~load
    ~fns:(Array.init (Array.length types) (fun j -> base.Model.Instance.cost ~time:0 ~typ:j))
    ()

(* Section 4.3: the same fleet with per-slot availability — a
   maintenance window takes 24 web servers out for the second eighth of
   the horizon, and 16 batch servers arrive only in the second half.
   Loads are capped at 90% of each slot's available capacity, so every
   slot stays feasible. *)
let tvs_instance ~seed ~horizon =
  let base = scenario_inst "large-fleet" in
  let types = base.Model.Instance.types in
  let capacity = Model.Instance.capacity_at base ~time:0 in
  let avail ~time ~typ =
    match typ with
    | 0 -> if time >= horizon / 8 && time < horizon / 4 then 36 else 60
    | _ -> if time < horizon / 2 then 24 else 40
  in
  let load =
    Array.mapi
      (fun time v ->
        let cap =
          Array.fold_left ( +. ) 0.
            (Array.mapi
               (fun typ st -> float_of_int (avail ~time ~typ) *. st.Model.Server_type.cap)
               types)
        in
        Float.min v (0.9 *. cap))
      (trace ~seed ~salt:9002 ~capacity ~len:horizon)
  in
  Model.Instance.make_static ~avail ~types ~load
    ~fns:(Array.init (Array.length types) (fun j -> base.Model.Instance.cost ~time:0 ~typ:j))
    ()
