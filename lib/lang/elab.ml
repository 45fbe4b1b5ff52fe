(** Elaboration of OUN-lite syntax into core specifications.

    Name resolution for caller/callee positions: a name is a bound
    variable if a [bind]/[forall] is in scope, otherwise a declared
    sort, otherwise an object constant.  Method names used in trace
    expressions must appear in the alphabet section; their argument
    shape ([M] vs [M(_)]) must agree with the declaration. *)

open Posl_ident
open Posl_sets
open Ast
module Epat = Posl_regex.Epat
module Regex = Posl_regex.Regex
module Tset = Posl_tset.Tset
module Counting = Posl_tset.Counting
module Spec = Posl_core.Spec

exception Elab_error of string * pos

let err pos fmt = Format.kasprintf (fun m -> raise (Elab_error (m, pos))) fmt

type env = {
  pos : pos;
  sorts : (string * Oset.t) list;
  bound : string list;  (** object variables in scope *)
  mths : (string * bool) list;  (** declared methods, with data flag *)
}

let resolve_sort env name =
  match List.assoc_opt name env.sorts with
  | Some s -> s
  | None -> err env.pos "unknown sort %s" name

let resolve_oref env name : Epat.opat =
  if String.equal name "_" then Epat.In Oset.full
  else if List.mem name env.bound then Epat.Var name
  else
    match List.assoc_opt name env.sorts with
    | Some s -> Epat.In s
    | None -> Epat.Const (Oid.v name)

let arg_of_decl takes_data =
  if takes_data then Argsel.any_value else Argsel.none_only

let elab_sort_expr = function
  | Sort_finite names -> Oset.of_list (List.map Oid.v names)
  | Sort_cofinite names -> Oset.cofin_of_list (List.map Oid.v names)

let elab_alpha env (clauses : alpha_clause list) =
  let rect_of clause m =
    let opat_to_oset = function
      | Epat.Const o -> Oset.singleton o
      | Epat.In s -> s
      | Epat.Var x -> err env.pos "variable %s not allowed in alphabet" x
    in
    Rect.make
      ~callers:(opat_to_oset (resolve_oref env clause.callers))
      ~callees:(opat_to_oset (resolve_oref env clause.callees))
      ~mths:(Mset.singleton (Mth.v m.mth_name))
      ~args:(arg_of_decl m.takes_data)
  in
  Eventset.of_rects
    (List.concat_map (fun c -> List.map (rect_of c) c.mths) clauses)

let mth_arg env name =
  match List.assoc_opt name env.mths with
  | Some takes_data -> takes_data
  | None -> err env.pos "method %s not declared in the alphabet" name

let rec elab_regex env = function
  | R_eps -> Regex.eps
  | R_atom { caller; callee; mth; arg } ->
      let mths, args =
        if String.equal mth "_" then (Mset.full, Argsel.full)
        else begin
          let takes_data = mth_arg env mth in
          (match (arg, takes_data) with
          | A_any, false ->
              err env.pos "method %s carries no data; write <...,%s>" mth mth
          | A_none, true ->
              err env.pos "method %s carries data; write <...,%s(_)>" mth mth
          | A_any, true | A_none, false -> ());
          (Mset.singleton (Mth.v mth), arg_of_decl takes_data)
        end
      in
      Regex.atom
        (Epat.make ~args
           ~caller:(resolve_oref env caller)
           ~callee:(resolve_oref env callee)
           mths)
  | R_seq (a, b) -> Regex.seq (elab_regex env a) (elab_regex env b)
  | R_alt (a, b) -> Regex.alt (elab_regex env a) (elab_regex env b)
  | R_star r -> Regex.star (elab_regex env r)
  | R_bind (x, sort, r) ->
      let s = resolve_sort env sort in
      Regex.bind x s (elab_regex { env with bound = x :: env.bound } r)

let elab_cformula env (f : cformula) : Counting.t =
  let b = Counting.Build.create () in
  let classes = Hashtbl.create 8 in
  let cls_of name =
    (* Counter #M counts the events calling method M, any end points. *)
    let _ = mth_arg env name in
    match Hashtbl.find_opt classes name with
    | Some idx -> idx
    | None ->
        let idx =
          Counting.Build.cls b
            (Eventset.calls ~args:Argsel.full ~callers:Oset.full
               ~callees:Oset.full
               (Mset.singleton (Mth.v name)))
        in
        Hashtbl.add classes name idx;
        idx
  in
  let sum_exp (terms : csum) =
    List.fold_left
      (fun acc (positive, name) ->
        let open Counting.Build in
        let c = count (cls_of name) in
        match acc with
        | None -> Some (if positive then c else [] -- c)
        | Some e -> Some (if positive then e @ c else e -- c))
      None terms
    |> Option.value ~default:[]
  in
  let rec conv = function
    | C_cmp (sum, cmp, k) ->
        let e = sum_exp sum in
        let open Counting.Build in
        (match cmp with C_le -> e <=. k | C_ge -> e >=. k | C_eq -> e =. k)
    | C_and (a, b) -> Counting.Build.( &&. ) (conv a) (conv b)
    | C_or (a, b) -> Counting.Build.( ||. ) (conv a) (conv b)
  in
  Counting.Build.finish b (conv f)

let rec elab_texpr env = function
  | T_all -> Tset.all
  | T_prs r -> Tset.prs (elab_regex env r)
  | T_count f -> Tset.counting (elab_cformula env f)
  | T_and (a, b) -> Tset.conj [ elab_texpr env a; elab_texpr env b ]
  | T_forall (x, sort, body) ->
      let s = resolve_sort env sort in
      (* The body is elaborated per concrete object: the variable
         resolves to that object constant, and the body sees the
         object's own projection of the trace (Tset.Forall_obj).  It is
         also elaborated once now, at a witness, so an error in it (an
         undeclared method, say) surfaces here with its position
         instead of at first use; bodies are uniform over the sort,
         since the substitution only renames the bound variable. *)
      let at o = elab_texpr env (subst_texpr x o body) in
      Option.iter (fun w -> ignore (at w)) (Oset.witness s);
      Tset.forall_obj s at

and subst_texpr x o = function
  | T_all -> T_all
  | T_prs r -> T_prs (subst_regex x o r)
  | T_count f -> T_count f
  | T_and (a, b) -> T_and (subst_texpr x o a, subst_texpr x o b)
  | T_forall (y, sort, body) when y <> x ->
      T_forall (y, sort, subst_texpr x o body)
  | T_forall _ as t -> t

and subst_regex x o = function
  | R_eps -> R_eps
  | R_atom a ->
      let swap name = if name = x then Oid.name o else name in
      R_atom { a with caller = swap a.caller; callee = swap a.callee }
  | R_seq (a, b) -> R_seq (subst_regex x o a, subst_regex x o b)
  | R_alt (a, b) -> R_alt (subst_regex x o a, subst_regex x o b)
  | R_star r -> R_star (subst_regex x o r)
  | R_bind (y, sort, r) when y <> x -> R_bind (y, sort, subst_regex x o r)
  | R_bind _ as r -> r

(** Elaborate one specification declaration. *)
let elab_spec (d : spec_decl) : Spec.t =
  if d.objects = [] then err d.spec_pos "spec %s declares no objects" d.spec_name;
  let env =
    {
      pos = d.spec_pos;
      sorts = List.map (fun (n, se) -> (n, elab_sort_expr se)) d.sorts;
      bound = [];
      mths =
        List.concat_map
          (fun (c : alpha_clause) ->
            List.map (fun m -> (m.mth_name, m.takes_data)) c.mths)
          d.alphabet;
    }
  in
  let alpha = elab_alpha env d.alphabet in
  let tset =
    match d.traces with
    | [] -> Tset.all
    | ts -> Tset.conj (List.map (elab_texpr env) ts)
  in
  match
    Spec.validate ~name:d.spec_name
      ~objs:(Oid.Set.of_list (List.map Oid.v d.objects))
      ~alpha
  with
  | Ok () ->
      Spec.v ~name:d.spec_name ~objs:(List.map Oid.v d.objects) ~alpha tset
  | Error e ->
      err d.spec_pos "spec %s is not well-formed: %a" d.spec_name Spec.pp_error e

let elab_file (f : file) : Spec.t list = List.map elab_spec (Ast.specs f)
