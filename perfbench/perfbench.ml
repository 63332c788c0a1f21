(* perfbench: one run of one workload.  See README.md.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --bin RIGHTSIZER
     perfbench.exe --selftest

   The last line of standard output is the result object. *)

let m name unit_ value = { Stat.name; unit_; value }

let q a x = if a = [||] then nan else Stat.quantile a x

let serve_cfg = function
  | "serve-fleet" -> Serve.fleet
  | "serve-dp" -> Serve.dp
  | w -> invalid_arg ("unknown workload " ^ w)

let serve_timed cfg ~bin ~seed ~seconds =
  let r = Serve.run_timed cfg ~bin ~seed ~seconds in
  let light = r.Serve.light and heavy = r.Serve.heavy in
  Array.iteri (fun i s -> Stat.note "setup %d: %.3f s" (i + 1) s) r.Serve.setups;
  Serve.describe r.Serve.prefill;
  Serve.describe ~rate:cfg.Serve.light_rate light;
  Serve.describe ~rate:cfg.Serve.heavy_rate heavy;
  List.iter Serve.describe r.Serve.closed;
  let cl, ch, cc = r.Serve.cements in
  Stat.note "cements: %.0f during light slices, %.0f during heavy, %.0f during closed" cl ch cc;
  let list a = String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.3f") a)) in
  Stat.note "recover %s s, daemon peak RSS %s MB, %d snapshots read" (list r.Serve.recover_s)
    (list r.Serve.rss_mb)
    (List.fold_left (fun acc rep -> acc + List.length rep.Serve.w.Wire.snapshots) 0 r.Serve.replicas);
  let plan k = Stat.median r.Serve.plan_ms.(k) in
  let lat = Serve.latency cfg in
  let failures =
    Serve.check cfg r
    @ List.concat_map (fun rep -> List.rev rep.Serve.w.Wire.errors) r.Serve.replicas
  in
  ( failures,
    r.Serve.attempted,
    r.Serve.failed,
    [ m "sat_decisions_per_s" "1/s" (Serve.sat_rate cfg r.Serve.closed);
      m "p50_ms.light" "ms" (lat r.Serve.light_parts light ~tail:false);
      m "tail_ms.light" "ms" (lat r.Serve.light_parts light ~tail:true);
      m "p50_ms.heavy" "ms" (lat r.Serve.heavy_parts heavy ~tail:false);
      m "tail_ms.heavy" "ms" (lat r.Serve.heavy_parts heavy ~tail:true);
      m "recover_s" "s" (Stat.median r.Serve.recover_s);
      m "setup_s" "s" (Stat.median r.Serve.setups);
      m "peak_rss_mb" "MB" (Stat.median r.Serve.rss_mb);
      m "plan_ms.exact" "ms" (plan 0);
      m "plan_ms.approx" "ms" (plan 1);
      m "plan_ms.tvs" "ms" (plan 2) ] )

let plan_timed ~seed ~seconds =
  let r = Plan.run_timed ~seed ~seconds in
  Array.iteri (fun i s -> Stat.note "setup %d: %.3f s" (i + 1) s) r.Plan.setups;
  Array.iteri
    (fun i k ->
      let a = r.Plan.solve_ms.(i) in
      Stat.note "closed %-6s %d solves, median %.2f ms" (Plan.kind_name k) (Array.length a)
        (Stat.median a))
    Plan.kinds;
  List.iter
    (fun (label, rate, lat, lag) ->
      let n = Array.length lat in
      Stat.note
        "phase %-5s %d requests at %.0f/s  latency p50 %.2f p%.0f %.2f (%d beyond) max %.2f ms  \
         lag p50 %.2f max %.2f ms"
        label n rate (q lat 0.5) (100. *. Stat.tail_q n) (Stat.tail lat)
        (int_of_float (float_of_int n *. (1. -. Stat.tail_q n)))
        (q lat 1.) (q lag 0.5) (q lag 1.))
    [ ("light", Plan.open_rate_light, r.Plan.light, r.Plan.light_lag);
      ("heavy", Plan.open_rate_heavy, r.Plan.heavy, r.Plan.heavy_lag) ];
  ( r.Plan.failures,
    r.Plan.attempted,
    0,
    [ m "sat_decisions_per_s" "1/s" (float_of_int r.Plan.closed_slots /. r.Plan.closed_s);
      m "p50_ms.light" "ms" (q r.Plan.light 0.5);
      m "tail_ms.light" "ms" (Stat.tail r.Plan.light);
      m "p50_ms.heavy" "ms" (q r.Plan.heavy 0.5);
      m "tail_ms.heavy" "ms" (Stat.tail r.Plan.heavy);
      m "recover_s" "s" (Stat.median r.Plan.recover);
      m "setup_s" "s" (Stat.median r.Plan.setups);
      m "peak_rss_mb" "MB" r.Plan.rss_mb;
      m "plan_ms.exact" "ms" (Stat.median r.Plan.solve_ms.(0));
      m "plan_ms.approx" "ms" (Stat.median r.Plan.solve_ms.(1));
      m "plan_ms.tvs" "ms" (Stat.median r.Plan.solve_ms.(2)) ] )

(* The traced run prints every per-layer metric; a layer the workload
   never enters reads 0. *)
let per_layer_names =
  [ ("codec.decode_us", "us"); ("codec.encode_us", "us"); ("protocol.parse_us", "us");
    ("protocol.render_us", "us"); ("daemon.round_us", "us"); ("residual_us", "us");
    ("session.feed_us", "us"); ("prefix_opt.step_us", "us"); ("stepper.step_us", "us");
    ("session.save_ms", "ms"); ("store.append_us", "us"); ("store.flush_us", "us");
    ("store.cement_ms", "ms"); ("store.recover_ms", "ms"); ("dp.fill_layer_us", "us");
    ("transform.ramp_us", "us"); ("dp.residual_ms", "ms");
    ("dispatch.calls_per_decision", "count"); ("dispatch.newton_evals_per_call", "count");
    ("dp.cells_per_solve", "count"); ("cost.rank_hit_ratio", "ratio");
    ("server.sessions_per_round", "count"); ("store.records_per_flush", "count");
    ("store.cements", "count"); ("store.base_mb", "MB");
    ("gc.minor_words_per_decision", "words"); ("gc.major_collections", "count") ]

let complete measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.Stat.name = name) measured with
      | Some x -> x
      | None -> m name unit_ 0.)
    per_layer_names

let main ~workload ~seed ~seconds ~trace ~bin =
  let seconds = float_of_int seconds in
  let all0, steal0 = Stat.cpu_ticks () in
  let failures, attempted, failed, metrics =
    match (workload, trace) with
    | "offline-plan", false -> plan_timed ~seed ~seconds
    | "offline-plan", true -> ([], 1, 0, complete (Plan.run_traced ~seed))
    | w, false -> serve_timed (serve_cfg w) ~bin ~seed ~seconds
    | w, true ->
        let cfg = serve_cfg w in
        let layers, light = Traced.run cfg ~bin ~seed in
        Serve.describe ~rate:cfg.Serve.light_rate light;
        ([], light.Wire.ops, light.Wire.op_failures, complete layers)
  in
  let all1, steal1 = Stat.cpu_ticks () in
  Stat.note "host steal: %.1f%% of CPU time during the run"
    (100. *. Stat.ratio (steal1 -. steal0) (all1 -. all0));
  List.iter (fun f -> Stat.note "CHECK FAILED: %s" f) failures;
  print_endline (Stat.result_line ~correct:(failures = []) ~attempted ~failed metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let bin = ref "" and run_dir = ref ".perfbench_run" and selftest = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  serve-fleet | serve-dp | offline-plan");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  run length");
      ("--trace", Arg.Set_int trace, "0|1  timed run or traced (per-layer) run");
      ("--bin", Arg.Set_string bin, "PATH  the rightsizer executable");
      ("--run-dir", Arg.Set_string run_dir, "DIR  scratch directory (default .perfbench_run)");
      ("--selftest", Arg.Set selftest, " show that every output check catches a corrupted output") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --bin PATH";
  if !selftest then exit (Selftest.run ())
  else begin
    if not (List.mem !workload [ "serve-fleet"; "serve-dp"; "offline-plan" ]) then begin
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
    end;
    let bin = if Filename.is_relative !bin then Filename.concat (Sys.getcwd ()) !bin else !bin in
    let dir = Filename.concat !run_dir !workload in
    Wire.rm_rf dir;
    ignore (Sys.command ("mkdir -p " ^ Filename.quote dir));
    Sys.chdir dir;
    (* Daemons never outlive the benchmark, even when it is stopped. *)
    List.iter
      (fun signal ->
        Sys.set_signal signal
          (Sys.Signal_handle
             (fun _ ->
               Server.Spawn.kill_all ();
               exit 2)))
      [ Sys.sigterm; Sys.sigint ];
    Fun.protect ~finally:Server.Spawn.kill_all (fun () ->
        main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~bin)
  end
