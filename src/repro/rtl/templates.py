"""Verilog source templates of the emitted ODEBlock datapath.

Each template mirrors one layer of the Python truth in
:mod:`repro.fixedpoint.arithmetic` / :mod:`repro.fpga.ops` operation for
operation, so the emitted RTL computes bit-for-bit what
:class:`repro.fpga.odeblock_hw.HardwareODEBlock` computes:

* ``fx_mul``  — double-width product, **arithmetic** right shift by the
  fraction bits (truncates toward -inf, like numpy's ``>>`` on int64),
  then saturation;
* ``fx_div``  — numerator shifted left by the fraction bits, then Verilog's
  signed ``/``: its truncation toward zero is the semantics
  :func:`repro.fixedpoint.arithmetic.fx_div` models (through a float64
  quotient where that is exact, else the integer sign-trick);
* ``fx_mean`` — wide wrapping accumulator, one truncating division by the
  element count;
* ``fx_sqrt`` — floor integer square root of ``value << fraction_bits`` via
  the classic bit-by-bit algorithm (the same exact floor as
  :func:`~repro.fixedpoint.arithmetic.fx_sqrt`);
* conv MAC    — 64-bit wrapping accumulation (numpy's int64 matmul wraps on
  overflow exactly like a 64-bit two's-complement adder), single
  renormalising shift, saturation.

The static module files (``fx_ops.vh``, ``weight_rom.v``, ``conv_pe.v``,
``bn_unit.v``) are parameterised Verilog and used verbatim; only the top
module and the testbench are formatted by :mod:`repro.rtl.emit` with the
concrete geometry / Q-format / unit-count numbers.

The RTL is **simulation-oriented behavioural Verilog** (combinational BRAM
reads, single-cycle divide/sqrt): its job is to make the bit-level claims of
the Python model refutable by any Verilog simulator, not to close timing.
"""

from __future__ import annotations

__all__ = [
    "FX_OPS_VH",
    "WEIGHT_ROM_V",
    "CONV_PE_V",
    "BN_UNIT_V",
    "TOP_TEMPLATE",
    "TB_TEMPLATE",
    "PE_BLOCK_TEMPLATE",
    "PE_BLOCK_IDLE_TEMPLATE",
]


FX_OPS_VH = """\
// fx_ops.vh - fixed-point helper functions (generated by repro.rtl).
//
// Include INSIDE a module body that defines:
//   parameter  WORD, FRAC
//   localparam signed [63:0] FX_MAX, FX_MIN
//
// Semantics mirror repro.fixedpoint.arithmetic exactly:
//   fx_sat  - saturate a 64-bit value to the WORD-bit range (fx_add/fx_sub
//             overflow handling and QFormat clipping)
//   fx_mul  - double-width product, arithmetic right shift by FRAC
//             (truncates toward -inf, like numpy int64 >>), then saturate
//   isqrt64 - floor integer square root of a 64-bit radicand (fx_sqrt's
//             integer sqrt of value << FRAC)

function signed [63:0] fx_sat;
    input signed [63:0] v;
    begin
        if (v > FX_MAX) fx_sat = FX_MAX;
        else if (v < FX_MIN) fx_sat = FX_MIN;
        else fx_sat = v;
    end
endfunction

function signed [63:0] fx_mul;
    input signed [63:0] a;
    input signed [63:0] b;
    reg signed [63:0] p;
    begin
        // Operands are WORD-bit (<= 32) values, so the product is exact in
        // 64 bits; >>> on a signed reg is an arithmetic shift.
        p = a * b;
        fx_mul = fx_sat(p >>> FRAC);
    end
endfunction

function [63:0] isqrt64;
    input [63:0] v;
    reg [63:0] rem, root, place;
    integer sq_i;
    begin
        rem = v;
        root = 64'd0;
        place = 64'h4000_0000_0000_0000;  // bit 62: covers radicands < 2^63
        for (sq_i = 0; sq_i < 32; sq_i = sq_i + 1) begin
            if (rem >= root + place) begin
                rem = rem - root - place;
                root = root + (place << 1);
            end
            root = root >> 1;
            place = place >> 2;
        end
        isqrt64 = root;
    end
endfunction
"""


WEIGHT_ROM_V = """\
// weight_rom.v - BRAM-backed parameter ROM (generated by repro.rtl).
//
// One instance per weight bank plus one for the batch-norm parameters.
// The init files are hex dumps of the QFormat.to_fixed() weight words, so
// the ROM contents and the bit-accurate model share one source of
// truth.  Reads are combinational (behavioural BRAM model).

module weight_rom #(
    parameter WORD = 32,
    parameter DEPTH = 1,
    parameter AW = 1,
    parameter INIT_FILE = "rom.hex"
) (
    input  [AW-1:0] addr,
    output signed [WORD-1:0] data
);
    reg [WORD-1:0] mem [0:DEPTH-1];

    initial $readmemh(INIT_FILE, mem);

    assign data = mem[addr];
endmodule
"""


CONV_PE_V = """\
// conv_pe.v - fixed-point convolution processing element (repro.rtl).
//
// One multiply-add unit of the conv_xN configuration.  PE u owns the
// output channels co with co % N_PE == u; its weight bank holds the conv1
// weights of those channels followed by the conv2 weights, in the same
// (channel, ci, kh, kw) order the MAC loop walks, so the weight address
// is a plain sequential pointer.
//
// The arithmetic matches repro.fpga.ops.hw_conv2d exactly: zero padding,
// 64-bit wrapping accumulation over ci/kh/kw (numpy int64 matmul wraps
// identically), one arithmetic right shift by FRAC, saturation.

module conv_pe #(
    parameter WORD = 32,
    parameter FRAC = 20,
    parameter C_IN = 16,   // conv input channels (incl. the time plane)
    parameter H = 32,
    parameter W = 32,
    parameter K = 3,
    parameter PAD = 1,
    parameter N_CH = 1,    // output channels owned by this PE (0 = idle PE)
    parameter AW_IN = 14,
    parameter AW_W = 12,
    parameter AW_OUT = 12
) (
    input clk,
    input rst,
    input start,           // one-cycle pulse; conv_sel picks the weight set
    input conv_sel,        // 0 = conv1 weights, 1 = conv2 weights
    output reg done,
    output [AW_IN-1:0] in_addr,
    input signed [WORD-1:0] in_data,
    output [AW_W-1:0] w_addr,
    input signed [WORD-1:0] w_data,
    input [AW_OUT-1:0] rd_addr,
    output signed [WORD-1:0] rd_data
);
    localparam signed [63:0] FX_MAX = (64'sd1 <<< (WORD - 1)) - 64'sd1;
    localparam signed [63:0] FX_MIN = -(64'sd1 <<< (WORD - 1));
    localparam OUT_WORDS = (N_CH > 0) ? N_CH * H * W : 1;
    localparam WBASE2 = N_CH * C_IN * K * K;  // conv2 weights follow conv1

    `include "fx_ops.vh"

    reg [WORD-1:0] out_ram [0:OUT_WORDS-1];
    assign rd_data = out_ram[rd_addr];

    reg running;
    reg wsel;
    integer oc, oh, ow, ci, kh, kw;
    reg signed [63:0] acc;

    wire signed [31:0] ih = oh + kh - PAD;
    wire signed [31:0] iw = ow + kw - PAD;
    wire in_bounds = (ih >= 0) && (ih < H) && (iw >= 0) && (iw < W);

    assign in_addr = in_bounds ? (ci * H * W + ih * W + iw) : 0;
    assign w_addr = (wsel ? WBASE2 : 0) + ((oc * C_IN + ci) * K + kh) * K + kw;

    // Zero padding: padded taps contribute x = 0 but still consume one MAC
    // cycle (and one weight address), mirroring the im2col zero columns.
    wire signed [63:0] xval = in_bounds ? in_data : 64'sd0;
    wire signed [63:0] acc_plus = acc + xval * w_data;

    wire last_mac = (ci == C_IN - 1) && (kh == K - 1) && (kw == K - 1);
    wire last_out = (oc == N_CH - 1) && (oh == H - 1) && (ow == W - 1);

    always @(posedge clk) begin
        if (rst) begin
            running <= 0;
            done <= 0;
            wsel <= 0;
            oc <= 0; oh <= 0; ow <= 0;
            ci <= 0; kh <= 0; kw <= 0;
            acc <= 0;
        end else if (start) begin
            done <= (N_CH > 0) ? 1'b0 : 1'b1;
            running <= (N_CH > 0);
            wsel <= conv_sel;
            oc <= 0; oh <= 0; ow <= 0;
            ci <= 0; kh <= 0; kw <= 0;
            acc <= 0;
        end else if (running) begin
            if (last_mac) begin
                out_ram[oc * H * W + oh * W + ow] <= fx_sat(acc_plus >>> FRAC);
                acc <= 0;
                ci <= 0; kh <= 0; kw <= 0;
                if (last_out) begin
                    running <= 0;
                    done <= 1;
                end else if (ow == W - 1) begin
                    ow <= 0;
                    if (oh == H - 1) begin
                        oh <= 0;
                        oc <= oc + 1;
                    end else oh <= oh + 1;
                end else ow <= ow + 1;
            end else begin
                acc <= acc_plus;
                if (kw == K - 1) begin
                    kw <= 0;
                    if (kh == K - 1) begin
                        kh <= 0;
                        ci <= ci + 1;
                    end else kh <= kh + 1;
                end else kw <= kw + 1;
            end
        end
    end
endmodule
"""


BN_UNIT_V = """\
// bn_unit.v - batch-normalisation datapath unit (repro.rtl).
//
// Computes the dynamic-statistics batch norm of repro.fpga.ops.hw_batch_norm
// channel by channel: mean and variance over the spatial elements with a
// wide accumulator and truncating division (fx_mean / fx_var), sigma via the
// integer square root of (var + eps) << FRAC (fx_sqrt), clamped to one LSB,
// then (x - mean) / sigma * gamma + beta per element (fx_div / fx_mul /
// fx_add).  gamma and beta come from the parameter ROM laid out exactly
// as the emitter writes bn_params.hex (gamma, beta, mean, var per BN step).

module bn_unit #(
    parameter WORD = 32,
    parameter FRAC = 20,
    parameter C = 16,
    parameter HW = 1024,  // spatial elements per channel
    parameter AW_X = 14,
    parameter AW_R = 8,
    parameter signed [63:0] EPS_FX = 0
) (
    input clk,
    input rst,
    input start,           // one-cycle pulse; bn_sel picks the parameter set
    input bn_sel,          // 0 = BN1 parameters, 1 = BN2 parameters
    output reg done,
    output [AW_X-1:0] x_addr,
    input signed [WORD-1:0] x_data,
    output reg [AW_X-1:0] y_addr,
    output reg signed [WORD-1:0] y_data,
    output reg y_we,
    output [AW_R-1:0] r_addr,
    input signed [WORD-1:0] r_data
);
    localparam signed [63:0] FX_MAX = (64'sd1 <<< (WORD - 1)) - 64'sd1;
    localparam signed [63:0] FX_MIN = -(64'sd1 <<< (WORD - 1));
    localparam signed [63:0] HW_S = HW;

    `include "fx_ops.vh"

    localparam S_IDLE  = 3'd0;
    localparam S_GAMMA = 3'd1;
    localparam S_BETA  = 3'd2;
    localparam S_SUM   = 3'd3;
    localparam S_MEAN  = 3'd4;
    localparam S_VSUM  = 3'd5;
    localparam S_STD   = 3'd6;
    localparam S_NORM  = 3'd7;

    reg [2:0] state;
    reg sel;
    integer c, i;
    reg signed [63:0] acc, mean, stdv, gamma, beta;
    reg signed [63:0] t_veps, t_std, t_norm;

    // ROM layout per BN step: gamma[C], beta[C], mean[C], var[C].
    wire [31:0] base = sel ? 4 * C : 0;
    assign r_addr = (state == S_GAMMA) ? (base + c) : (base + C + c);
    assign x_addr = c * HW + i;

    wire signed [63:0] x64 = x_data;
    wire signed [63:0] centered = fx_sat(x64 - mean);

    always @(posedge clk) begin
        if (rst) begin
            state <= S_IDLE;
            done <= 0;
            sel <= 0;
            c <= 0; i <= 0;
            acc <= 0; mean <= 0; stdv <= 1;
            gamma <= 0; beta <= 0;
            y_we <= 0; y_addr <= 0; y_data <= 0;
        end else begin
            y_we <= 0;
            if (start) begin
                done <= 0;
                sel <= bn_sel;
                c <= 0; i <= 0;
                acc <= 0;
                state <= S_GAMMA;
            end else begin
                case (state)
                    S_GAMMA: begin
                        gamma <= r_data;
                        state <= S_BETA;
                    end
                    S_BETA: begin
                        beta <= r_data;
                        i <= 0;
                        acc <= 0;
                        state <= S_SUM;
                    end
                    S_SUM: begin
                        acc <= acc + x64;  // wide wrapping accumulator
                        if (i == HW - 1) state <= S_MEAN;
                        else i <= i + 1;
                    end
                    S_MEAN: begin
                        // Signed / truncates toward zero: fx_mean's
                        // sign(total) * (|total| // count).
                        mean <= fx_sat(acc / HW_S);
                        i <= 0;
                        acc <= 0;
                        state <= S_VSUM;
                    end
                    S_VSUM: begin
                        acc <= acc + fx_mul(centered, centered);
                        if (i == HW - 1) state <= S_STD;
                        else i <= i + 1;
                    end
                    S_STD: begin
                        // var = sat(acc / HW); sigma = sat(isqrt((var + eps)
                        // << FRAC)) clamped to one LSB (fx_sqrt + hw divider
                        // clamp of hw_batch_norm).
                        t_veps = fx_sat(fx_sat(acc / HW_S) + EPS_FX);
                        t_std = fx_sat($signed(isqrt64(t_veps <<< FRAC)));
                        stdv <= (t_std < 64'sd1) ? 64'sd1 : t_std;
                        i <= 0;
                        state <= S_NORM;
                    end
                    S_NORM: begin
                        // fx_div: (centered << FRAC) / sigma truncates
                        // toward zero, then saturates.
                        t_norm = fx_sat((centered <<< FRAC) / stdv);
                        y_data <= fx_sat(fx_mul(t_norm, gamma) + beta);
                        y_addr <= c * HW + i;
                        y_we <= 1;
                        if (i == HW - 1) begin
                            i <= 0;
                            if (c == C - 1) begin
                                done <= 1;
                                state <= S_IDLE;
                            end else begin
                                c <= c + 1;
                                state <= S_GAMMA;
                            end
                        end else i <= i + 1;
                    end
                    default: state <= S_IDLE;
                endcase
            end
        end
    end
endmodule
"""


#: One conv PE with its weight-bank ROM (PE u, u < number of banks).
PE_BLOCK_TEMPLATE = """\
    // -- PE {u}: output channels {owned} --------------------------------
    wire [{aw_in_m1}:0] pe{u}_in_addr;
    wire signed [{wm1}:0] pe{u}_in_data = buf_in[pe{u}_in_addr];
    wire [{aw_w_m1}:0] pe{u}_w_addr;
    wire signed [{wm1}:0] pe{u}_w_data;
    wire signed [{wm1}:0] pe{u}_rd_data;
    wire pe{u}_done;

    weight_rom #(.WORD({word}), .DEPTH({bank_words}), .AW({aw_w}),
                 .INIT_FILE("wbank_{u}.hex")) u_wrom{u} (
        .addr(pe{u}_w_addr), .data(pe{u}_w_data));

    conv_pe #(.WORD({word}), .FRAC({frac}), .C_IN({c_inc}), .H({h}), .W({w}),
              .K({k}), .PAD({pad}), .N_CH({n_ch}),
              .AW_IN({aw_in}), .AW_W({aw_w}), .AW_OUT({aw_out})) u_pe{u} (
        .clk(clk), .rst(rst), .start(pe_start), .conv_sel(conv_sel),
        .done(pe{u}_done),
        .in_addr(pe{u}_in_addr), .in_data(pe{u}_in_data),
        .w_addr(pe{u}_w_addr), .w_data(pe{u}_w_data),
        .rd_addr(pe_rd_addr), .rd_data(pe{u}_rd_data));
"""

#: A PE with no output channels (unit count above the channel count): the
#: MAC unit is still instantiated (the DSP budget is per unit) but it has no
#: weight bank and completes immediately.
PE_BLOCK_IDLE_TEMPLATE = """\
    // -- PE {u}: idle (no owned output channels) ------------------------
    wire [{aw_in_m1}:0] pe{u}_in_addr;
    wire signed [{wm1}:0] pe{u}_in_data = buf_in[pe{u}_in_addr];
    wire [{aw_w_m1}:0] pe{u}_w_addr;
    wire signed [{wm1}:0] pe{u}_w_data = 0;
    wire signed [{wm1}:0] pe{u}_rd_data;
    wire pe{u}_done;

    conv_pe #(.WORD({word}), .FRAC({frac}), .C_IN({c_inc}), .H({h}), .W({w}),
              .K({k}), .PAD({pad}), .N_CH(0),
              .AW_IN({aw_in}), .AW_W({aw_w}), .AW_OUT({aw_out})) u_pe{u} (
        .clk(clk), .rst(rst), .start(pe_start), .conv_sel(conv_sel),
        .done(pe{u}_done),
        .in_addr(pe{u}_in_addr), .in_data(pe{u}_in_data),
        .w_addr(pe{u}_w_addr), .w_data(pe{u}_w_data),
        .rd_addr(pe_rd_addr), .rd_data(pe{u}_rd_data));
"""


TOP_TEMPLATE = """\
// odeblock_top.v - ODEBlock Euler-step datapath (generated by repro.rtl).
//
// {block_comment}
//
// One invocation computes z' = z + h * f(z, t) where f is the five-step
// pipeline conv1 -> BN1 -> ReLU -> conv2 -> BN2 of the paper's PL ODEBlock,
// bit-identical to HardwareODEBlock.execute_batch (verified by the testbench
// vectors).  Protocol: stream the quantised feature map in with in_valid
// (C*H*W words, channel-major), hold t_fx, pulse start, then collect
// C*H*W output words flagged by out_valid.
//
// Deliberately not emitted (modelled analytically in the Python packages):
// the AXI DMA front-end (repro.fpga.axi) and the control FSM for replica
// scheduling (repro.sim / repro.fleet).

module odeblock_top (
    input clk,
    input rst,
    input in_valid,
    input signed [{wm1}:0] in_data,
    input signed [{wm1}:0] t_fx,
    input start,
    output reg busy,
    output reg done,
    output reg out_valid,
    output reg signed [{wm1}:0] out_data
);
    localparam WORD = {word};
    localparam FRAC = {frac};
    localparam C = {c};          // feature-map channels
    localparam C_INC = {c_inc};  // conv input channels (+1 when time-concat)
    localparam H = {h};
    localparam W = {w};
    localparam HW = {hw};
    localparam CHW = {chw};      // words per feature map (C * H * W)
    localparam N_PE = {n_pe};    // multiply-add units (conv_x{n_pe})
    localparam TIME_CONCAT = {tc};
    localparam H_IS_ONE = {h_is_one};
    localparam signed [63:0] HFX = {hfx};  // Euler step size, quantised
    localparam signed [63:0] FX_MAX = (64'sd1 <<< (WORD - 1)) - 64'sd1;
    localparam signed [63:0] FX_MIN = -(64'sd1 <<< (WORD - 1));

    `include "fx_ops.vh"

    // BRAM-mapped buffers (input_fmap / intermediate_fmap / output_fmap of
    // the plan_block_allocation regions), plus the residual input copy.
    reg signed [{wm1}:0] z_mem   [0:{chw_m1}];
    reg signed [{wm1}:0] buf_in  [0:{in_words_m1}];
    reg signed [{wm1}:0] buf_mid [0:{chw_m1}];
    reg signed [{wm1}:0] buf_out [0:{chw_m1}];

    reg pe_start, conv_sel;
    reg bn_start, bn_sel;
    integer ld, idx, cp_idx;

    // Copy-phase address decode: output channel co lives in PE (co % N_PE)
    // at local plane (co / N_PE).
    wire [31:0] cp_co = cp_idx / HW;
    wire [31:0] cp_sp = cp_idx % HW;
    wire [{aw_out_m1}:0] pe_rd_addr = (cp_co / N_PE) * HW + cp_sp;

{pe_blocks}
    wire all_pe_done = {all_pe_done_expr};

    reg signed [{wm1}:0] pe_rd_mux;
    always @* begin
        case (cp_co % N_PE)
{pe_rd_mux_cases}            default: pe_rd_mux = 0;
        endcase
    end

    // -- batch-norm unit + parameter ROM ------------------------------------
    wire bn_done;
    wire [{aw_x_m1}:0] bn_x_addr;
    wire signed [{wm1}:0] bn_x_data = buf_mid[bn_x_addr];
    wire [{aw_x_m1}:0] bn_y_addr;
    wire signed [{wm1}:0] bn_y_data;
    wire bn_y_we;
    wire [{aw_r_m1}:0] bn_r_addr;
    wire signed [{wm1}:0] bn_r_data;

    weight_rom #(.WORD({word}), .DEPTH({bn_words}), .AW({aw_r}),
                 .INIT_FILE("{bn_hex}")) u_bn_rom (
        .addr(bn_r_addr), .data(bn_r_data));

    bn_unit #(.WORD({word}), .FRAC({frac}), .C({c}), .HW({hw}),
              .AW_X({aw_x}), .AW_R({aw_r}), .EPS_FX({eps_fx})) u_bn (
        .clk(clk), .rst(rst), .start(bn_start), .bn_sel(bn_sel),
        .done(bn_done),
        .x_addr(bn_x_addr), .x_data(bn_x_data),
        .y_addr(bn_y_addr), .y_data(bn_y_data), .y_we(bn_y_we),
        .r_addr(bn_r_addr), .r_data(bn_r_data));

    always @(posedge clk) begin
        if (bn_y_we) buf_out[bn_y_addr] <= bn_y_data;
    end

    // -- control FSM --------------------------------------------------------
    localparam S_IDLE      = 4'd0;
    localparam S_TPLANE    = 4'd1;
    localparam S_CONV      = 4'd2;
    localparam S_CONV_WAIT = 4'd3;
    localparam S_COPY      = 4'd4;
    localparam S_BN        = 4'd5;
    localparam S_BN_WAIT   = 4'd6;
    localparam S_RELU      = 4'd7;
    localparam S_OUT       = 4'd8;

    reg [3:0] state;
    reg pass2;  // 0 = conv1/BN1 round, 1 = conv2/BN2 round

    // Residual Euler update: z + h * f(z, t)  (hw_residual_add).
    wire signed [63:0] z64_cur = z_mem[idx];
    wire signed [63:0] f64_cur = buf_out[idx];
    wire signed [63:0] v64_cur = H_IS_ONE ? f64_cur : fx_mul(f64_cur, HFX);

    always @(posedge clk) begin
        if (rst) begin
            state <= S_IDLE;
            busy <= 0; done <= 0; out_valid <= 0; out_data <= 0;
            pe_start <= 0; conv_sel <= 0;
            bn_start <= 0; bn_sel <= 0;
            pass2 <= 0;
            ld <= 0; idx <= 0; cp_idx <= 0;
        end else begin
            pe_start <= 0;
            bn_start <= 0;
            out_valid <= 0;
            if (in_valid) begin
                z_mem[ld] <= in_data;
                buf_in[ld] <= in_data;
                ld <= ld + 1;
                done <= 0;
            end
            case (state)
                S_IDLE: if (start) begin
                    busy <= 1;
                    done <= 0;
                    pass2 <= 0;
                    idx <= 0;
                    state <= (TIME_CONCAT != 0) ? S_TPLANE : S_CONV;
                end
                S_TPLANE: begin
                    // Constant integration-time plane, both convolutions
                    // (HardwareODEBlock._with_time_channel).
                    buf_in[C * HW + idx] <= t_fx;
                    if (idx == HW - 1) begin
                        idx <= 0;
                        state <= S_CONV;
                    end else idx <= idx + 1;
                end
                S_CONV: begin
                    pe_start <= 1;
                    conv_sel <= pass2;
                    state <= S_CONV_WAIT;
                end
                S_CONV_WAIT: if (!pe_start && all_pe_done) begin
                    cp_idx <= 0;
                    state <= S_COPY;
                end
                S_COPY: begin
                    buf_mid[cp_idx] <= pe_rd_mux;
                    if (cp_idx == CHW - 1) state <= S_BN;
                    else cp_idx <= cp_idx + 1;
                end
                S_BN: begin
                    bn_start <= 1;
                    bn_sel <= pass2;
                    state <= S_BN_WAIT;
                end
                S_BN_WAIT: if (!bn_start && bn_done) begin
                    idx <= 0;
                    state <= pass2 ? S_OUT : S_RELU;
                end
                S_RELU: begin
                    buf_in[idx] <= buf_out[idx][WORD-1] ? 0 : buf_out[idx];
                    if (idx == CHW - 1) begin
                        idx <= 0;
                        pass2 <= 1;
                        state <= S_CONV;
                    end else idx <= idx + 1;
                end
                S_OUT: begin
                    out_valid <= 1;
                    out_data <= fx_sat(z64_cur + v64_cur);
                    if (idx == CHW - 1) begin
                        idx <= 0;
                        ld <= 0;
                        busy <= 0;
                        done <= 1;
                        state <= S_IDLE;
                    end else idx <= idx + 1;
                end
                default: state <= S_IDLE;
            endcase
        end
    end
endmodule
"""


TB_TEMPLATE = """\
// tb_odeblock.v - testbench-vector conformance harness (repro.rtl).
//
// Replays the stimulus/expected pairs dumped from the batched FxArray
// engine (HardwareODEBlock.run_iterations_batch) and checks the DUT output
// word for word.  Prints exactly one CONFORMANCE PASS/FAIL line, which
// repro.rtl.simrun parses.
//
// Record layout ({nrec} records):
//   stimulus: C*H*W feature-map words then one t_fx word
//   expected: C*H*W feature-map words

`timescale 1ns/1ps

module tb_odeblock;
    localparam WORD = {word};
    localparam CHW = {chw};
    localparam NREC = {nrec};
    localparam RECW = CHW + 1;

    reg clk = 0;
    reg rst = 1;
    reg in_valid = 0;
    reg start = 0;
    reg signed [WORD-1:0] in_data = 0;
    reg signed [WORD-1:0] t_fx = 0;
    wire busy, done, out_valid;
    wire signed [WORD-1:0] out_data;

    reg [WORD-1:0] stim  [0:NREC*RECW-1];
    reg [WORD-1:0] expct [0:NREC*CHW-1];

    odeblock_top dut (
        .clk(clk), .rst(rst),
        .in_valid(in_valid), .in_data(in_data),
        .t_fx(t_fx), .start(start),
        .busy(busy), .done(done),
        .out_valid(out_valid), .out_data(out_data));

    always #5 clk = ~clk;

    integer rec, i, out_i, errors, checked, guard;

    initial begin
        $readmemh("{stim_hex}", stim);
        $readmemh("{exp_hex}", expct);
        errors = 0;
        checked = 0;
        repeat (4) @(negedge clk);
        rst = 0;
        for (rec = 0; rec < NREC; rec = rec + 1) begin
            for (i = 0; i < CHW; i = i + 1) begin
                @(negedge clk);
                in_valid = 1;
                in_data = $signed(stim[rec*RECW + i]);
            end
            @(negedge clk);
            in_valid = 0;
            t_fx = $signed(stim[rec*RECW + CHW]);
            start = 1;
            @(negedge clk);
            start = 0;
            out_i = 0;
            guard = 0;
            while (out_i < CHW && guard < {guard_cycles}) begin
                @(negedge clk);
                guard = guard + 1;
                if (out_valid) begin
                    if (out_data !== $signed(expct[rec*CHW + out_i])) begin
                        errors = errors + 1;
                        if (errors <= 10)
                            $display("MISMATCH rec=%0d word=%0d got=%0d want=%0d",
                                     rec, out_i, out_data,
                                     $signed(expct[rec*CHW + out_i]));
                    end
                    checked = checked + 1;
                    out_i = out_i + 1;
                end
            end
            if (out_i < CHW) begin
                $display("CONFORMANCE FAIL timeout in record %0d", rec);
                $finish;
            end
        end
        if (errors == 0)
            $display("CONFORMANCE PASS %0d vectors %0d words", NREC, checked);
        else
            $display("CONFORMANCE FAIL %0d mismatches of %0d words",
                     errors, checked);
        $finish;
    end
endmodule
"""
