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
  Lazy.force ctx.mfp_before - Bgl_partition.Mfp.volume_after ~cache:ctx.cache ctx.grid candidate

(* The candidate minimising [score], with its score; earlier candidates
   win ties. [stop] is a known lower bound on the score: the scan ends
   at the first candidate reaching it (placement can never enlarge the
   MFP, so 0 is a valid bound for loss-based scores), which returns the
   same candidate a full scan would. *)
let argmin ?(stop = neg_infinity) score candidates =
  let rec go best best_score = function
    | [] -> Some (best, best_score)
    | candidate :: rest ->
        let s = score candidate in
        if s <= stop then Some (candidate, s)
        else if s < best_score then go candidate s rest
        else go best best_score rest
  in
  match candidates with
  | [] -> None
  | first :: rest ->
      let s = score first in
      if s <= stop then Some (first, s) else go first s rest

let mfp =
  instrument "placement.mfp"
  {
    Policy.name = "mfp";
    choose =
      (fun ctx ~job:_ ~volume:_ ~candidates ->
        Option.map fst (argmin ~stop:0. (fun c -> float_of_int (mfp_loss ctx c)) candidates));
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
        match (argmin ~stop:0. e_loss candidates, decline_threshold) with
        | Some (_, loss), Some threshold when loss > threshold *. float_of_int job.size -> None
        | best, _ -> Option.map fst best);
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
        (* Least MFP loss first, then a predicted survivor: doubling
           the loss leaves room for the unit failure penalty, so the
           earliest safe candidate among the tied wins, else the
           earliest tied. *)
        let dims = Grid.dims ctx.grid in
        let score candidate =
          let doomed =
            Bgl_predict.Predictor.partition_will_fail predictor
              ~nodes:(Box.indices dims candidate) ~now:ctx.now ~horizon:job.estimate
          in
          float_of_int ((2 * mfp_loss ctx candidate) + Bool.to_int doomed)
        in
        Option.map fst (argmin ~stop:0. score candidates));
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
        Option.map fst (argmin ~stop:0. p_f candidates));
  }
