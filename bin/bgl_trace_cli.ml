(* bgl-trace: generate and inspect job logs (SWF) and failure logs.

     bgl-trace jobs --profile sdsc --jobs 2000 --out log.swf
     bgl-trace failures --events 300 --span 1e6 --out failures.log
     bgl-trace inspect log.swf
     bgl-trace inspect failures.log --kind failures *)

open Cmdliner

let profile_conv =
  let parse s =
    match Bgl_workload.Profile.by_name s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown profile %S (nasa, sdsc, llnl)" s))
  in
  Arg.conv (parse, fun ppf (p : Bgl_workload.Profile.t) -> Format.pp_print_string ppf p.name)

(* ---- jobs ---- *)

let gen_jobs profile n_jobs max_nodes seed load out =
  Bgl_resilience.Error.run ~prog:"bgl-trace" @@ fun () ->
  let log =
    Bgl_workload.Synthetic.generate { profile; n_jobs; max_nodes; seed }
    |> Bgl_trace.Job_log.scale_runtime ~c:load
  in
  (match out with
  | Some path ->
      Bgl_trace.Swf.save log path;
      Format.printf "wrote %d jobs to %s@." (Bgl_trace.Job_log.length log) path
  | None -> print_string (Bgl_trace.Swf.to_string log));
  Format.printf "%a@." Bgl_trace.Job_log.pp_stats log;
  Format.printf "offered load on %d nodes: %.3f@." max_nodes
    (Bgl_trace.Job_log.offered_load log ~nodes:max_nodes);
  Ok 0

let jobs_cmd =
  let n_jobs = Arg.(value & opt int 2000 & info [ "jobs"; "n" ] ~docv:"N") in
  let max_nodes = Arg.(value & opt int 128 & info [ "nodes" ] ~docv:"N") in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED") in
  let load = Arg.(value & opt float 1.0 & info [ "load"; "c" ] ~docv:"C") in
  let profile = Arg.(value & opt profile_conv Bgl_workload.Profile.sdsc & info [ "profile" ]) in
  let out = Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "jobs" ~doc:"generate a synthetic job log (SWF)")
    Term.(const gen_jobs $ profile $ n_jobs $ max_nodes $ seed $ load $ out)

(* ---- failures ---- *)

let gen_failures events span volume seed skew burst uniform out =
  Bgl_resilience.Error.run ~prog:"bgl-trace" @@ fun () ->
  let log =
    if uniform then
      Bgl_failure.Generator.poisson_uniform ~span ~volume ~n_events:events ~seed
    else
      Bgl_failure.Generator.generate
        {
          (Bgl_failure.Generator.default ~span ~volume ~n_events:events ~seed) with
          node_skew = skew;
          burst_mean_size = burst;
        }
  in
  (match out with
  | Some path ->
      Bgl_trace.Failure_log.save log path;
      Format.printf "wrote %d events to %s@." (Bgl_trace.Failure_log.length log) path
  | None -> print_string (Bgl_trace.Failure_log.to_string log));
  Format.printf "%a@." Bgl_trace.Failure_log.pp_stats log;
  Ok 0

let failures_cmd =
  let events = Arg.(value & opt int 300 & info [ "events"; "n" ] ~docv:"N") in
  let span = Arg.(value & opt float 1e6 & info [ "span" ] ~docv:"SECONDS") in
  let volume = Arg.(value & opt int 128 & info [ "nodes" ] ~docv:"N") in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED") in
  let skew = Arg.(value & opt float 1.4 & info [ "skew" ] ~docv:"ZIPF") in
  let burst = Arg.(value & opt float 3. & info [ "burst" ] ~docv:"MEAN") in
  let uniform = Arg.(value & flag & info [ "uniform" ] ~doc:"Uniform Poisson trace (no bursts/skew).") in
  let out = Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "failures" ~doc:"generate a synthetic failure log")
    Term.(const gen_failures $ events $ span $ volume $ seed $ skew $ burst $ uniform $ out)

(* ---- inspect ---- *)

let inspect path kind =
  Bgl_resilience.Error.run ~prog:"bgl-trace" @@ fun () ->
  let as_failures () =
    match Bgl_trace.Failure_log.load path with
    | Ok log ->
        Format.printf "%a@." Bgl_trace.Failure_log.pp_stats log;
        let nodes = Bgl_trace.Failure_log.nodes log in
        let counts =
          List.map
            (fun n ->
              ( n,
                Array.fold_left
                  (fun acc (e : Bgl_trace.Failure_log.event) -> if e.node = n then acc + 1 else acc)
                  0 log.events ))
            nodes
          |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
        in
        Format.printf "top failing nodes:@.";
        List.iteri (fun i (n, c) -> if i < 10 then Format.printf "  node %3d: %d events@." n c) counts;
        Ok ()
    | Error e -> Error e
  in
  let as_jobs () =
    match Bgl_trace.Swf.load path with
    | Ok (log, report) ->
        Format.printf "%a@." Bgl_trace.Job_log.pp_stats log;
        Format.printf "parsed %d, skipped %d, malformed %d@." report.parsed report.skipped
          (List.length report.malformed);
        Format.printf "offered load on 128 nodes: %.3f@."
          (Bgl_trace.Job_log.offered_load log ~nodes:128);
        Ok ()
    | Error e -> Error e
  in
  let as_run_trace () =
    match Bgl_audit.Trace.load_files [ path ] with
    | Error e -> Error e
    | Ok t when t.sections = [] ->
        Error (Bgl_resilience.Error.Parse { name = path; detail = "no run sections (not a run trace)" })
    | Ok t ->
        let complete = List.filter Bgl_audit.Trace.complete t.sections in
        Format.printf "run trace: %d lines, %d section(s) (%d complete)@." t.lines_total
          (List.length t.sections) (List.length complete);
        List.iter
          (fun (s : Bgl_audit.Trace.section) ->
            let span =
              match s.summary with
              | Some (_, t_end) -> t_end -. s.meta.time
              | None -> (
                  match List.rev s.events with
                  | last :: _ -> Bgl_sim.Recorder.time last.entry -. s.meta.time
                  | [] -> 0.)
            in
            Format.printf "section %s: schema %d, policy %s, %d jobs, %.0f s%s@."
              (Option.value ~default:"(untagged)" s.run)
              s.meta.schema s.meta.policy s.meta.jobs span
              (if Bgl_audit.Trace.complete s then "" else " [truncated]");
            let counts = Hashtbl.create 8 in
            List.iter
              (fun (it : Bgl_audit.Trace.item) ->
                let k = Bgl_sim.Recorder.name it.entry in
                Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
              s.events;
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
            |> List.sort compare
            |> List.iter (fun (k, v) -> Format.printf "  %-12s %d@." k v))
          t.sections;
        Ok ()
  in
  (* A run trace is JSONL: the first line opens with '{', which no SWF
     or failure log does. *)
  let looks_jsonl () =
    match In_channel.with_open_text path In_channel.input_line with
    | Some l -> ( match String.trim l with "" -> false | t -> t.[0] = '{')
    | None -> false
    | exception Sys_error _ -> false
  in
  let parsed result =
    Result.map_error (fun msg -> Bgl_resilience.Error.Parse { name = path; detail = msg }) result
  in
  let result =
    match kind with
    | "jobs" -> parsed (as_jobs ())
    | "failures" -> parsed (as_failures ())
    | "trace" -> as_run_trace ()
    | "auto" ->
        if looks_jsonl () then as_run_trace ()
        else ( match as_jobs () with Ok () -> Ok () | Error _ -> parsed (as_failures ()))
    | other -> Bgl_resilience.Error.usagef "unknown kind %S (jobs, failures, trace, auto)" other
  in
  Result.map (fun () -> 0) result

let inspect_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let kind =
    Arg.(value & opt string "auto" & info [ "kind" ] ~docv:"KIND"
           ~doc:"What FILE is: jobs, failures, trace (a --trace-out run trace), or auto.")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"summarise a job log, failure log or run trace")
    Term.(const inspect $ path $ kind)

let () =
  let doc = "generate and inspect workload and failure traces" in
  exit (Cmd.eval' (Cmd.group (Cmd.info "bgl-trace" ~doc) [ jobs_cmd; failures_cmd; inspect_cmd ]))
