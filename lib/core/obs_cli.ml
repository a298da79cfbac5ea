type t = {
  metrics_out : string option;
  registry : Bgl_obs.Registry.t option;
  trace_channel : out_channel option;
}

let setup ?metrics_out ?trace_out ?progress () =
  Option.iter
    (fun every ->
      if every < 1 then Cli_flags.usage_failf "--progress must be >= 1 (got %d)" every)
    progress;
  let registry =
    Option.map
      (fun path ->
        (* Fail now, not after a long run, if the path is unwritable. *)
        close_out (Cli_flags.open_out_or_fail path);
        let reg = Bgl_obs.Registry.create () in
        Bgl_obs.Runtime.set_registry reg;
        reg)
      metrics_out
  in
  let trace_channel =
    Option.map
      (fun path ->
        let oc = Cli_flags.open_out_or_fail path in
        (* One [output_string] per line: OCaml 5 channels lock per
           operation, so whole lines stay atomic even when worker
           domains trace into the same channel. Flushing on the
           section trailer keeps trace durability ahead of journal
           durability: the sweep journals a cell as complete right
           after its run_summary is emitted, and a kill between a
           buffered trailer and the journal append would otherwise
           orphan a truncated section no resume ever replays. *)
        Bgl_obs.Runtime.set_trace_writer
          (Some
             (fun line ->
               output_string oc (line ^ "\n");
               if Bgl_sim.Recorder.is_summary_line line then flush oc));
        oc)
      trace_out
  in
  Option.iter
    (fun every -> Bgl_obs.Runtime.set_heartbeat (Some (Bgl_obs.Heartbeat.create ~every ())))
    progress;
  { metrics_out; registry; trace_channel }

let finish ?report t =
  (match (t.registry, t.metrics_out) with
  | Some reg, Some path ->
      Option.iter (Bgl_sim.Metrics.report_to_registry reg) report;
      Bgl_obs.Span.export reg;
      Cli_flags.write_registry ~path reg
  | _ -> ());
  Option.iter
    (fun oc ->
      flush oc;
      close_out oc)
    t.trace_channel;
  Bgl_obs.Runtime.reset ()
