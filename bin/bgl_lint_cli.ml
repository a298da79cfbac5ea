(* bgl-lint: the determinism & domain-safety static analyzer.

     bgl-lint lib bin bench test examples perfbench  # human report, .lint-waivers applied
     bgl-lint --format jsonl lib                     # one JSON object per finding
     bgl-lint --no-waivers lib                       # report waived findings too

   It reads the compiler's .cmt output, so build first (dune build).
   Exit codes follow the Bgl_resilience.Error conventions: 0 clean,
   1 non-waived findings (or stale waivers), 2 usage, 65 the waiver
   file failed to parse, 74 I/O (including a path with no compiled
   unit). *)

open Cmdliner

let paths =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"PATH"
        ~doc:"Source files or directories to lint (a directory covers every unit compiled under \
              it).")

let waivers_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "waivers" ] ~docv:"FILE"
        ~doc:"Waiver file (default: .lint-waivers in the current directory, when present).")

let no_waivers =
  Arg.(
    value & flag
    & info [ "no-waivers" ]
        ~doc:"Ignore the waiver file and report every finding (CI uses this to smoke-check the \
              JSONL stream on a known-nonempty report).")

let default_waivers = ".lint-waivers"

let run format quiet waivers_file no_waivers paths =
  Bgl_resilience.Error.run ~prog:"bgl-lint" @@ fun () ->
  Bgl_core.Cli_flags.set_quiet quiet;
  let ( let* ) = Result.bind in
  let* waivers =
    if no_waivers then Ok []
    else
      match waivers_file with
      | Some path -> Bgl_lint.Waivers.load path
      | None ->
          if Sys.file_exists default_waivers then Bgl_lint.Waivers.load default_waivers
          else Ok []
  in
  let* outcome = Bgl_lint.Driver.run ~waivers paths in
  (match format with
  | Bgl_core.Cli_flags.Human -> Format.printf "%a@?" Bgl_lint.Driver.pp_human outcome
  | Bgl_core.Cli_flags.Jsonl ->
      List.iter print_endline (Bgl_lint.Driver.to_jsonl outcome));
  Bgl_core.Cli_flags.notef "%a@." Bgl_lint.Driver.pp_summary outcome;
  Ok (if Bgl_lint.Driver.clean outcome then 0 else 1)

let cmd =
  let doc = "statically check the tree for determinism and domain-safety violations" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Analyzes the compiler's $(b,.cmt) output for the given paths: a directory covers every \
         unit compiled under it, a single $(b,.ml) file the unit compiled from it. Requires a \
         prior $(b,dune build); when invoked from the source root the $(b,_build/default) mirror \
         of each path is read.";
      `P
        "Per-unit rules match resolved paths, so module aliases and $(b,open) do not hide a \
         call: R1 (wall-clock reads), R2 (stdlib Random), R3 (unsynchronized top-level mutable \
         state, including records declared in other modules), R4 (swallowed exceptions), R5 \
         (float-literal equality), R6 (stray stdout in lib/). A cross-module call graph supports \
         R7 (nondeterministic primitives reachable from deterministic roots, reported with the \
         call path), R8 (mutable state captured by closures crossing domains), R9 (catch-alls \
         that can swallow typed control exceptions), R10 (Job lifecycle writes outside \
         Job.transition), and R11 (lib/ values no executable under bin/, bench/, examples/ or \
         perfbench/ reaches; tests do not count). Pass every executable directory for an R11 \
         verdict: a value only an unscanned executable calls reads as unreached.";
      `P
        "Findings a $(b,.lint-waivers) entry covers are suppressed; waivers that cover nothing \
         in a scanned file are stale and reported as findings themselves. An R7 waiver doubles \
         as a taint barrier on its file.";
    ]
  in
  Cmd.v
    (Cmd.info "bgl-lint" ~doc ~man)
    Term.(
      const run $ Bgl_core.Cli_flags.format $ Bgl_core.Cli_flags.quiet $ waivers_file
      $ no_waivers $ paths)

let () = exit (Cmd.eval' cmd)
