(* Schedule forensics: attach a recorder to the engine, replay a faulty
   workload, and dissect what happened — which jobs died, on which
   nodes, and how well different predictors would have seen it coming.

     dune exec examples/schedule_forensics.exe *)

let () =
  let log =
    Bgl_workload.Synthetic.generate
      { profile = Bgl_workload.Profile.sdsc; n_jobs = 600; max_nodes = 128; seed = 5 }
  in
  let span = Bgl_trace.Job_log.span log in
  let failures =
    Bgl_failure.Generator.generate
      (Bgl_failure.Generator.default ~span:(span *. 1.5) ~volume:128 ~n_events:180 ~seed:6)
  in
  let index = Bgl_predict.Failure_index.of_log failures in
  let recorder = Bgl_sim.Recorder.create () in
  let policy =
    Bgl_sched.Placement.balancing
      ~predictor:(Bgl_predict.Predictor.balancing ~confidence:0.3 index)
      ()
  in
  let outcome = Bgl_sim.Engine.run ~recorder ~policy ~log ~failures () in
  Format.printf "%a@.@." Bgl_sim.Metrics.pp_report outcome.report;

  (* 1. The raw execution trace (first few entries). *)
  Format.printf "== first 12 trace entries ==@.";
  List.iteri
    (fun i entry -> if i < 12 then Format.printf "%a@." Bgl_sim.Recorder.pp_entry entry)
    (Bgl_sim.Recorder.entries recorder);

  (* 2. Kill forensics: who suffered, and on which nodes? Every tenancy
     a failure cut short is a segment ending in [Killed node]. *)
  Format.printf "@.== kill forensics ==@.";
  let segments = Bgl_core.Timeline.segments recorder in
  let kills =
    List.filter_map
      (fun (s : Bgl_core.Timeline.segment) ->
        match s.ending with Killed node -> Some (s.job, s.ended, node) | _ -> None)
      segments
  in
  let tally key =
    let counts = Hashtbl.create 16 in
    List.iter
      (fun k ->
        Hashtbl.replace counts (key k) (1 + Option.value ~default:0 (Hashtbl.find_opt counts (key k))))
      kills;
    (* Most kills first, ties by id. *)
    Hashtbl.fold (fun id n acc -> (id, n) :: acc) counts []
    |> List.sort (fun (a, m) (b, n) -> match Int.compare n m with 0 -> Int.compare a b | c -> c)
  in
  (match tally (fun (job, _, _) -> job) with
  | [] -> Format.printf "no job was ever killed@."
  | (job, n) :: _ ->
      Format.printf "most-killed job: %d (%d kills)@." job n;
      List.iter
        (fun (j, time, node) ->
          if j = job then Format.printf "  killed at %.0f by node %d@." time node)
        kills);
  Format.printf "deadliest nodes:@.";
  List.iteri
    (fun i (node, k) -> if i < 5 then Format.printf "  node %3d: %d job kills@." node k)
    (tally (fun (_, _, node) -> node));

  (* 3. The machine's utilisation timeline, reconstructed from the
     trace. *)
  Format.printf "@.== utilisation timeline (%d tenancies) ==@.|%s|@."
    (List.length segments)
    (Bgl_core.Timeline.render segments ~volume:128 ~width:72);

  (* 4. Predictor post-mortem: how good would each predictor have been
     on this trace? *)
  Format.printf "@.== predictor quality on this trace (2 h horizon) ==@.";
  let score name predictor =
    let report =
      Bgl_predict.Evaluation.probe predictor ~truth:index ~span ~horizon:7200. ~nodes:128
        ~samples:400
    in
    Format.printf "%-28s %a@." name Bgl_predict.Evaluation.pp report
  in
  score "oracle" (Bgl_predict.Predictor.oracle index);
  score "tie-breaking a=0.7" (Bgl_predict.Predictor.tie_breaking ~accuracy:0.7 ~seed:9 index);
  score "noisy a=0.7 fp=0.05"
    (Bgl_predict.Predictor.noisy ~accuracy:0.7 ~false_positive:0.05 ~seed:9 index);
  score "ewma half-life 2 d"
    (Bgl_predict.History.ewma ~half_life:172_800. ~threshold:0.05 index);
  score "rate window 1 w" (Bgl_predict.History.rate ~window:604_800. ~threshold:0.05 index)
