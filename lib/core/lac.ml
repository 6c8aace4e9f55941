module Graph = Aig.Graph

type t = {
  target : int;
  divisors : int array;
  cover : Logic.Cover.t;
  expr : Logic.Factor.expr;
  gain : int;
}

(* Derivation (Espresso + factoring) is the expensive step, so first collect
   every feasible divisor set with its cheap savings bound, then derive
   functions only for the most promising few. *)
let derivations_per_node = 8

(* Cap on the TFI nodes scanned for divisors per target node. *)
let max_tfi_divisors = 5000

(* Candidates of one target node, in the order the sequential flow has
   always produced them.  Pure in everything shared: the graph, signatures
   and fanout counts are only read, all scratch state is local —
   which is what makes the per-node fan-out below safe. *)
let candidates_for ?pool g ~(config : Config.t) ~sigs ~rounds ~fanouts v =
  let mffc = Aig.Cone.mffc g ~fanouts v in
  let mffc_size = List.length mffc in
  let in_mffc = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace in_mffc n ()) mffc;
  let sets = Array.of_list (Divisor.select g ~max_tfi:max_tfi_divisors v) in
  let feasible =
    Feasibility.filter ?pool ~sigs ~node:v ~sets ~rounds ()
    |> List.map (fun (divisors, care) ->
           (Divisor.true_savings g ~in_mffc ~mffc_size divisors, divisors, care))
  in
  let ranked =
    List.stable_sort (fun (s1, _, _) (s2, _, _) -> compare s2 s1) feasible
  in
  let found = ref 0 and derived = ref 0 in
  let candidates = ref [] in
  List.iter
    (fun (savings, divisors, care) ->
      if !derived < derivations_per_node && !found < config.lac_limit && savings >= 1
      then begin
        incr derived;
        let cover = Resub.derive care in
        let expr = Resub.expr_of_cover cover in
        let gain = savings - Logic.Factor.and2_cost expr in
        if gain >= 0 then begin
          incr found;
          candidates := { target = v; divisors; cover; expr; gain } :: !candidates
        end
      end)
    ranked;
  !candidates

let generate ?pool g ~(config : Config.t) ~sigs ~rounds =
  let fanouts = Aig.Topo.fanout_counts g in
  let nodes = ref [] in
  Graph.iter_ands g (fun v -> if fanouts.(v) > 0 then nodes := v :: !nodes);
  let nodes = Array.of_list (List.rev !nodes) in
  let n = Array.length nodes in
  (* Fan across target nodes; when the pool outnumbers the targets, push it
     one level down so the per-set care scans fill the idle lanes instead
     (nested submit is supported and results are order-independent). *)
  let set_pool =
    match pool with
    | Some p when n < Parallel.Pool.size p -> pool
    | Some _ | None -> None
  in
  let per_node =
    Parallel.Chunk.map ?pool ~n (fun i ->
        candidates_for ?pool:set_pool g ~config ~sigs ~rounds ~fanouts nodes.(i))
  in
  List.concat (Array.to_list per_node)

let replacement lac = Graph.Replace_expr (lac.expr, lac.divisors)

let pp ppf lac =
  Format.fprintf ppf "node %d <- %a over [%a] (gain %d)" lac.target Logic.Factor.pp
    lac.expr
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (Array.to_list lac.divisors)
    lac.gain
