open Bgl_torus
open Bgl_sim

(* Every exported policy is wrapped so placement decisions show up in
   the span profile under "placement.<family>". The guard sits outside
   Span.time to keep the unprofiled path closure-free. *)
let instrument span_name (policy : Policy.t) =
  {
    policy with
    Policy.choose =
      (fun ctx ~job ~volume ~candidates ->
        if Bgl_obs.Span.enabled () then
          Bgl_obs.Span.time ~name:span_name (fun () ->
              policy.choose ctx ~job ~volume ~candidates)
        else policy.choose ctx ~job ~volume ~candidates);
  }

let first_fit =
  instrument "placement.first-fit"
  {
    Policy.name = "first-fit";
    choose = (fun _ctx ~job:_ ~volume:_ ~candidates -> match candidates with [] -> None | b :: _ -> Some b);
  }

let mfp_loss (ctx : Policy.ctx) candidate =
  let dims = Grid.dims ctx.grid in
  let before = Lazy.force ctx.mfp_before in
  (* If a maximal free partition survives the placement untouched, the
     MFP cannot shrink. *)
  let survives =
    List.exists (fun b -> not (Box.overlap dims b candidate)) (Lazy.force ctx.mfp_boxes)
  in
  if survives then 0
  else before - Bgl_partition.Mfp.volume_after ~cache:ctx.cache ctx.grid candidate

(* Choose the candidate minimising [score]; earlier candidates win
   ties. [stop] is a known lower bound on the score: the scan ends at
   the first candidate reaching it (placement can never enlarge the
   MFP, so 0 is a valid bound for loss-based scores), which returns the
   same candidate a full scan would. *)
let argmin ?(stop = neg_infinity) score candidates =
  let rec go best best_score = function
    | [] -> Some best
    | candidate :: rest ->
        let s = score candidate in
        if s <= stop then Some candidate
        else if s < best_score then go candidate s rest
        else go best best_score rest
  in
  match candidates with
  | [] -> None
  | first :: rest ->
      let s = score first in
      if s <= stop then Some first else go first s rest

let mfp =
  instrument "placement.mfp"
  {
    Policy.name = "mfp";
    choose =
      (fun ctx ~job:_ ~volume:_ ~candidates ->
        argmin ~stop:0. (fun c -> float_of_int (mfp_loss ctx c)) candidates);
  }

let balancing ?(combine = `Product) ?decline_threshold ~predictor () =
  let name =
    Printf.sprintf "balancing[%s]" predictor.Bgl_predict.Predictor.name
  in
  instrument "placement.balancing"
  {
    Policy.name;
    choose =
      (fun ctx ~job ~volume:_ ~candidates ->
        let dims = Grid.dims ctx.grid in
        let e_loss candidate =
          let l_mfp = float_of_int (mfp_loss ctx candidate) in
          let p_f =
            Bgl_predict.Predictor.partition_prob predictor ~combine
              ~nodes:(Box.indices dims candidate) ~now:ctx.now ~horizon:job.estimate
          in
          l_mfp +. (p_f *. float_of_int job.size)
        in
        match argmin ~stop:0. e_loss candidates with
        | None -> None
        | Some best -> (
            match decline_threshold with
            | Some threshold when e_loss best > threshold *. float_of_int job.size -> None
            | Some _ | None -> Some best));
  }

let tie_breaking ~predictor () =
  let name =
    Printf.sprintf "tie-breaking[%s]" predictor.Bgl_predict.Predictor.name
  in
  instrument "placement.tie-breaking"
  {
    Policy.name;
    choose =
      (fun ctx ~job ~volume:_ ~candidates ->
        match candidates with
        | [] -> None
        | _ ->
            let dims = Grid.dims ctx.grid in
            let scored = List.map (fun c -> (c, mfp_loss ctx c)) candidates in
            let best_loss = List.fold_left (fun acc (_, l) -> min acc l) max_int scored in
            let tied = List.filter (fun (_, l) -> l = best_loss) scored in
            let safe (c, _) =
              not
                (Bgl_predict.Predictor.partition_will_fail predictor
                   ~nodes:(Box.indices dims c) ~now:ctx.now ~horizon:job.estimate)
            in
            (match List.find_opt safe tied with
            | Some (c, _) -> Some c
            | None -> ( match tied with (c, _) :: _ -> Some c | [] -> None)));
  }

let random ~seed =
  instrument "placement.random"
  {
    Policy.name = Printf.sprintf "random(seed=%d)" seed;
    choose =
      (fun ctx ~job ~volume:_ ~candidates ->
        match candidates with
        | [] -> None
        | _ ->
            let n = List.length candidates in
            let draw =
              Bgl_stats.Rng.hash_float ~seed job.Bgl_trace.Job_log.id
                (int_of_float (ctx.Policy.now *. 10.))
            in
            List.nth_opt candidates (int_of_float (draw *. float_of_int n)));
  }

let safest ~predictor () =
  let name = Printf.sprintf "safest[%s]" predictor.Bgl_predict.Predictor.name in
  instrument "placement.safest"
  {
    Policy.name;
    choose =
      (fun ctx ~job ~volume:_ ~candidates ->
        let dims = Grid.dims ctx.grid in
        let p_f candidate =
          Bgl_predict.Predictor.partition_prob predictor ~combine:`Product
            ~nodes:(Box.indices dims candidate) ~now:ctx.now ~horizon:job.estimate
        in
        argmin ~stop:0. p_f candidates);
  }
