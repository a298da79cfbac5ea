(* Cross-size checks for the size-generic torus stack: the same
   deterministic simulation at the paper's 4x4x8 supernode view, an
   intermediate 8x8x16, and the full 64x32x32 BG/L node torus.

   The golden fixtures pin the rendered metrics report of one
   first-fit run per size, so any future change to the grid
   representation (bit-packing, summary maintenance, finder gating)
   that silently alters scheduling results fails here byte-for-byte.
   Regenerate after an intended behaviour change with:

     BGL_UPDATE_GOLDEN=$PWD/test/fixtures \
       dune exec test/test_scale.exe *)

open Bgl_core

let check_bool = Alcotest.(check bool)

let sizes =
  [
    ("4x4x8", Bgl_torus.Dims.bgl, 120);
    ("8x8x16", Bgl_torus.Dims.make 8 8 16, 60);
    ("64x32x32", Bgl_torus.Dims.bgl_full, 12);
  ]

let scenario dims n_jobs =
  Scenario.make ~n_jobs ~seed:7 ~dims ~profile:Bgl_workload.Profile.sdsc Scenario.First_fit

let render dims n_jobs =
  let outcome = Scenario.run (scenario dims n_jobs) in
  Format.asprintf "%s@.%a@." outcome.name Bgl_sim.Metrics.pp_report outcome.report

(* cwd is the build directory under [dune runtest] but the project
   root under [dune exec test/test_scale.exe]; accept both. *)
let fixture_path name =
  let candidates = [ "fixtures/" ^ name; "test/fixtures/" ^ name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let read_golden ~name ~render =
  match Sys.getenv_opt "BGL_UPDATE_GOLDEN" with
  | Some dir ->
      let text = render () in
      let path = Filename.concat dir name in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
      Printf.printf "golden fixture rewritten: %s\n%!" path;
      text
  | None -> In_channel.with_open_bin (fixture_path name) In_channel.input_all

let test_golden (label, dims, n_jobs) () =
  let name = Printf.sprintf "scale_%s_golden.txt" label in
  Alcotest.(check string)
    (label ^ " report matches fixture")
    (read_golden ~name ~render:(fun () -> render dims n_jobs))
    (render dims n_jobs)

(* Differential mode re-answers sampled finder queries with the naive
   (or fresh ungated table) reference and aborts on any disagreement,
   so completing at all certifies zero divergences; matching the
   unchecked fixture additionally certifies that checking is
   observation-only. *)
let test_full_scale_differential () =
  let label, dims, n_jobs = List.nth sizes 2 in
  let name = Printf.sprintf "scale_%s_golden.txt" label in
  Bgl_partition.Finder.set_differential ~sample:10 true;
  Fun.protect
    ~finally:(fun () -> Bgl_partition.Finder.set_differential false)
    (fun () ->
      Alcotest.(check string)
        "checked run matches unchecked fixture"
        (read_golden ~name ~render:(fun () -> render dims n_jobs))
        (render dims n_jobs))

let test_small_differential () =
  Bgl_partition.Finder.set_differential true;
  Fun.protect
    ~finally:(fun () -> Bgl_partition.Finder.set_differential false)
    (fun () ->
      List.iter
        (fun (label, dims, n_jobs) ->
          let outcome = Scenario.run (scenario dims n_jobs) in
          check_bool (label ^ " fully checked run completes") true outcome.complete)
        [ List.nth sizes 0; List.nth sizes 1 ])

(* The parallel sweep must stay byte-identical to the sequential one
   at every machine size, not just the 4x4x8 the goldens in
   test_core pin. *)
let sweep_identical dims () =
  let scale =
    {
      Figures.n_jobs = 60;
      seeds = [ 7 ];
      a_values = [ 0.9 ];
      fail_fracs = [ 0.5 ];
      dims;
    }
  in
  let produce domains =
    let figs = Pool_helpers.sweep_figures ~domains (fun r s -> [ Figures.fig3 r s ]) scale in
    String.concat "" (List.map (Format.asprintf "%a@." Series.pp_figure) figs)
  in
  Alcotest.(check string) "1 vs 2 domains identical" (produce 1) (produce 2)

let test_dims_flag () =
  let parsed = Cli_flags.parse_dims ~default:Bgl_torus.Dims.bgl (Some "8x8x16") in
  check_bool "flag value parsed" true (parsed = Bgl_torus.Dims.make 8 8 16);
  let defaulted = Cli_flags.parse_dims ~default:Bgl_torus.Dims.bgl None in
  check_bool "absent flag keeps default" true (defaulted = Bgl_torus.Dims.bgl);
  try
    ignore (Cli_flags.parse_dims ~default:Bgl_torus.Dims.bgl (Some "sixty-four"));
    Alcotest.fail "malformed --dims accepted"
  with Bgl_resilience.Error.Cli e ->
    Alcotest.(check int) "usage error exits 2" 2 (Bgl_resilience.Error.exit_code e)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "bgl_scale"
    [
      ( "golden",
        [
          tc "4x4x8" (test_golden (List.nth sizes 0));
          tc "8x8x16" (test_golden (List.nth sizes 1));
          slow "64x32x32" (test_golden (List.nth sizes 2));
        ] );
      ( "differential",
        [
          tc "4x4x8 and 8x8x16 fully checked" test_small_differential;
          slow "64x32x32 sampled" test_full_scale_differential;
        ] );
      ( "domains",
        [
          tc "4x4x8 sweep 1 = 2 domains" (sweep_identical Bgl_torus.Dims.bgl);
          tc "8x8x16 sweep 1 = 2 domains" (sweep_identical (Bgl_torus.Dims.make 8 8 16));
        ] );
      ("cli", [ tc "--dims parse and usage error" test_dims_flag ]);
    ]
