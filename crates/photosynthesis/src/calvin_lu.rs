// @generated by `pathway_ode::JacobianPattern::emit_compiled_lu`: do not edit.
// Regenerate with `cargo run -p pathway-photosynthesis --example emit_calvin_lu`.

use pathway_ode::lanes::{self, LaneLu};
use pathway_ode::CompiledLu;

/// The static-pivot LU of a 24x24 pattern with 63 non-zeros,
/// 74 in `L + U` and 24 updates, in straight-line code over `L` lanes.
#[derive(Debug, Clone, Copy)]
pub struct Kernel;

/// The kernel's `L = 1` instance, for the scalar solve.
pub(crate) const COMPILED_LU: CompiledLu = CompiledLu::of::<Kernel>();

const MIN_PIVOT: f64 = 1e-13;
const MAX_MULTIPLIER: f64 = 100.0;

impl LaneLu for Kernel {
    const FINGERPRINT: u64 = 0x9567b3cb4e94cf27;

    #[inline(always)]
    fn factor<const L: usize>(
        diagonal: [f64; L],
        values: &[[f64; L]],
        lu: &mut [[f64; L]],
        inverse_pivots: &mut [[f64; L]],
    ) -> [bool; L] {
        let values: &[[f64; L]; 63] = values.try_into().expect("values of S");
        let lu: &mut [[f64; L]; 74] = lu.try_into().expect("LU storage");
        let inverse_pivots: &mut [[f64; L]; 24] = inverse_pivots.try_into().expect("pivots");
        lu[11] = [0.0; L];
        lu[14] = [0.0; L];
        lu[17] = [0.0; L];
        lu[20] = [0.0; L];
        lu[23] = [0.0; L];
        lu[26] = [0.0; L];
        lu[32] = [0.0; L];
        lu[43] = [0.0; L];
        lu[57] = [0.0; L];
        lu[63] = [0.0; L];
        lu[64] = [0.0; L];
        lu[27] = lanes::neg(values[0]);
        lu[30] = lanes::neg(values[1]);
        lu[8] = lanes::neg(values[2]);
        lu[31] = lanes::neg(values[3]);
        lu[6] = lanes::neg(values[4]);
        lu[5] = lanes::neg(values[5]);
        lu[62] = lanes::neg(values[6]);
        lu[67] = lanes::neg(values[7]);
        lu[46] = lanes::neg(values[8]);
        lu[70] = lanes::neg(values[9]);
        lu[60] = lanes::neg(values[10]);
        lu[50] = lanes::neg(values[11]);
        lu[58] = lanes::neg(values[12]);
        lu[53] = lanes::neg(values[13]);
        lu[34] = lanes::neg(values[14]);
        lu[45] = lanes::neg(values[15]);
        lu[69] = lanes::neg(values[16]);
        lu[68] = lanes::neg(values[17]);
        lu[71] = lanes::neg(values[18]);
        lu[61] = lanes::neg(values[19]);
        lu[54] = lanes::neg(values[20]);
        lu[66] = lanes::neg(values[21]);
        lu[59] = lanes::neg(values[22]);
        lu[49] = lanes::neg(values[23]);
        lu[48] = lanes::neg(values[24]);
        lu[55] = lanes::neg(values[25]);
        lu[65] = lanes::neg(values[26]);
        lu[56] = lanes::neg(values[27]);
        lu[52] = lanes::neg(values[28]);
        lu[28] = lanes::neg(values[29]);
        lu[51] = lanes::neg(values[30]);
        lu[7] = lanes::neg(values[31]);
        lu[9] = lanes::neg(values[32]);
        lu[10] = lanes::neg(values[33]);
        lu[12] = lanes::neg(values[34]);
        lu[13] = lanes::neg(values[35]);
        lu[15] = lanes::neg(values[36]);
        lu[16] = lanes::neg(values[37]);
        lu[18] = lanes::neg(values[38]);
        lu[19] = lanes::neg(values[39]);
        lu[21] = lanes::neg(values[40]);
        lu[22] = lanes::neg(values[41]);
        lu[24] = lanes::neg(values[42]);
        lu[29] = lanes::neg(values[43]);
        lu[25] = lanes::neg(values[44]);
        lu[33] = lanes::neg(values[45]);
        lu[41] = lanes::neg(values[46]);
        lu[42] = lanes::neg(values[47]);
        lu[39] = lanes::neg(values[48]);
        lu[38] = lanes::neg(values[49]);
        lu[36] = lanes::neg(values[50]);
        lu[4] = lanes::neg(values[51]);
        lu[37] = lanes::neg(values[52]);
        lu[35] = lanes::neg(values[53]);
        lu[3] = lanes::neg(values[54]);
        lu[2] = lanes::neg(values[55]);
        lu[1] = lanes::neg(values[56]);
        lu[0] = lanes::neg(values[57]);
        lu[47] = lanes::neg(values[58]);
        lu[72] = lanes::neg(values[59]);
        lu[44] = lanes::neg(values[60]);
        lu[40] = lanes::neg(values[61]);
        lu[73] = lanes::neg(values[62]);
        lu[0] = lanes::add(lu[0], diagonal);
        lu[2] = lanes::add(lu[2], diagonal);
        lu[5] = lanes::add(lu[5], diagonal);
        lu[7] = lanes::add(lu[7], diagonal);
        lu[10] = lanes::add(lu[10], diagonal);
        lu[13] = lanes::add(lu[13], diagonal);
        lu[16] = lanes::add(lu[16], diagonal);
        lu[19] = lanes::add(lu[19], diagonal);
        lu[22] = lanes::add(lu[22], diagonal);
        lu[25] = lanes::add(lu[25], diagonal);
        lu[27] = lanes::add(lu[27], diagonal);
        lu[31] = lanes::add(lu[31], diagonal);
        lu[33] = lanes::add(lu[33], diagonal);
        lu[35] = lanes::add(lu[35], diagonal);
        lu[38] = lanes::add(lu[38], diagonal);
        lu[42] = lanes::add(lu[42], diagonal);
        lu[45] = lanes::add(lu[45], diagonal);
        lu[48] = lanes::add(lu[48], diagonal);
        lu[51] = lanes::add(lu[51], diagonal);
        lu[56] = lanes::add(lu[56], diagonal);
        lu[59] = lanes::add(lu[59], diagonal);
        lu[67] = lanes::add(lu[67], diagonal);
        lu[71] = lanes::add(lu[71], diagonal);
        lu[73] = lanes::add(lu[73], diagonal);
        // Pivot 0: state 22.
        let inverse = lanes::recip(lu[0]);
        inverse_pivots[0] = inverse;
        // Pivot 1: state 21.
        let inverse = lanes::recip(lu[2]);
        inverse_pivots[1] = inverse;
        // Pivot 2: state 2.
        let inverse = lanes::recip(lu[5]);
        inverse_pivots[2] = inverse;
        let l = lanes::mul(lu[62], inverse);
        lu[62] = l;
        lu[63] = lanes::sub_mul(lu[63], l, lu[6]);
        // Pivot 3: state 10.
        let inverse = lanes::recip(lu[7]);
        inverse_pivots[3] = inverse;
        let l = lanes::mul(lu[9], inverse);
        lu[9] = l;
        lu[11] = lanes::sub_mul(lu[11], l, lu[8]);
        // Pivot 4: state 11.
        let inverse = lanes::recip(lu[10]);
        inverse_pivots[4] = inverse;
        let l = lanes::mul(lu[12], inverse);
        lu[12] = l;
        lu[14] = lanes::sub_mul(lu[14], l, lu[11]);
        // Pivot 5: state 12.
        let inverse = lanes::recip(lu[13]);
        inverse_pivots[5] = inverse;
        let l = lanes::mul(lu[15], inverse);
        lu[15] = l;
        lu[17] = lanes::sub_mul(lu[17], l, lu[14]);
        // Pivot 6: state 13.
        let inverse = lanes::recip(lu[16]);
        inverse_pivots[6] = inverse;
        let l = lanes::mul(lu[18], inverse);
        lu[18] = l;
        lu[20] = lanes::sub_mul(lu[20], l, lu[17]);
        // Pivot 7: state 14.
        let inverse = lanes::recip(lu[19]);
        inverse_pivots[7] = inverse;
        let l = lanes::mul(lu[21], inverse);
        lu[21] = l;
        lu[23] = lanes::sub_mul(lu[23], l, lu[20]);
        // Pivot 8: state 15.
        let inverse = lanes::recip(lu[22]);
        inverse_pivots[8] = inverse;
        let l = lanes::mul(lu[24], inverse);
        lu[24] = l;
        lu[26] = lanes::sub_mul(lu[26], l, lu[23]);
        // Pivot 9: state 16.
        let inverse = lanes::recip(lu[25]);
        inverse_pivots[9] = inverse;
        let l = lanes::mul(lu[29], inverse);
        lu[29] = l;
        lu[30] = lanes::sub_mul(lu[30], l, lu[26]);
        // Pivot 10: state 0.
        let inverse = lanes::recip(lu[27]);
        inverse_pivots[10] = inverse;
        let l = lanes::mul(lu[30], inverse);
        lu[30] = l;
        lu[32] = lanes::sub_mul(lu[32], l, lu[28]);
        // Pivot 11: state 1.
        let inverse = lanes::recip(lu[31]);
        inverse_pivots[11] = inverse;
        let l = lanes::mul(lu[63], inverse);
        lu[63] = l;
        lu[64] = lanes::sub_mul(lu[64], l, lu[32]);
        // Pivot 12: state 17.
        let inverse = lanes::recip(lu[33]);
        inverse_pivots[12] = inverse;
        let l = lanes::mul(lu[41], inverse);
        lu[41] = l;
        lu[43] = lanes::sub_mul(lu[43], l, lu[34]);
        // Pivot 13: state 20.
        let inverse = lanes::recip(lu[35]);
        inverse_pivots[13] = inverse;
        let l = lanes::mul(lu[37], inverse);
        lu[37] = l;
        lu[38] = lanes::sub_mul(lu[38], l, lu[36]);
        // Pivot 14: state 19.
        let inverse = lanes::recip(lu[38]);
        inverse_pivots[14] = inverse;
        // Pivot 15: state 18.
        let inverse = lanes::recip(lu[42]);
        inverse_pivots[15] = inverse;
        // Pivot 16: state 4.
        let inverse = lanes::recip(lu[45]);
        inverse_pivots[16] = inverse;
        let l = lanes::mul(lu[69], inverse);
        lu[69] = l;
        lu[70] = lanes::sub_mul(lu[70], l, lu[46]);
        lu[72] = lanes::sub_mul(lu[72], l, lu[47]);
        // Pivot 17: state 7.
        let inverse = lanes::recip(lu[48]);
        inverse_pivots[17] = inverse;
        let l = lanes::mul(lu[55], inverse);
        lu[55] = l;
        lu[57] = lanes::sub_mul(lu[57], l, lu[49]);
        lu[58] = lanes::sub_mul(lu[58], l, lu[50]);
        // Pivot 18: state 9.
        let inverse = lanes::recip(lu[51]);
        inverse_pivots[18] = inverse;
        let l = lanes::mul(lu[64], inverse);
        lu[64] = l;
        lu[65] = lanes::sub_mul(lu[65], l, lu[52]);
        lu[67] = lanes::sub_mul(lu[67], l, lu[53]);
        lu[68] = lanes::sub_mul(lu[68], l, lu[54]);
        // Pivot 19: state 8.
        let inverse = lanes::recip(lu[56]);
        inverse_pivots[19] = inverse;
        let l = lanes::mul(lu[65], inverse);
        lu[65] = l;
        lu[66] = lanes::sub_mul(lu[66], l, lu[57]);
        lu[67] = lanes::sub_mul(lu[67], l, lu[58]);
        // Pivot 20: state 6.
        let inverse = lanes::recip(lu[59]);
        inverse_pivots[20] = inverse;
        let l = lanes::mul(lu[66], inverse);
        lu[66] = l;
        lu[67] = lanes::sub_mul(lu[67], l, lu[60]);
        lu[68] = lanes::sub_mul(lu[68], l, lu[61]);
        // Pivot 21: state 3.
        let inverse = lanes::recip(lu[67]);
        inverse_pivots[21] = inverse;
        let l = lanes::mul(lu[70], inverse);
        lu[70] = l;
        lu[71] = lanes::sub_mul(lu[71], l, lu[68]);
        // Pivot 22: state 5.
        let inverse = lanes::recip(lu[71]);
        inverse_pivots[22] = inverse;
        // Pivot 23: state 23.
        let inverse = lanes::recip(lu[73]);
        inverse_pivots[23] = inverse;
        // The checks, once the elimination is done: no later update
        // writes a pivot or a multiplier, so each is read as it was used.
        let mut held = [true; L];
        lanes::hold_pivot(&mut held, lu[0], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[2], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[5], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[7], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[10], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[13], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[16], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[19], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[22], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[25], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[27], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[31], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[33], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[35], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[38], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[42], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[45], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[48], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[51], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[56], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[59], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[67], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[71], MIN_PIVOT);
        lanes::hold_pivot(&mut held, lu[73], MIN_PIVOT);
        lanes::hold_multiplier(&mut held, lu[62], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[9], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[12], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[15], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[18], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[21], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[24], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[29], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[30], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[63], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[41], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[37], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[69], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[55], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[64], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[65], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[66], MAX_MULTIPLIER);
        lanes::hold_multiplier(&mut held, lu[70], MAX_MULTIPLIER);
        held
    }

    #[inline(always)]
    fn substitute<const L: usize>(
        lu: &[[f64; L]],
        inverse_pivots: &[[f64; L]],
        a: &mut [[f64; L]],
        b: &mut [[f64; L]],
    ) {
        let lu: &[[f64; L]; 74] = lu.try_into().expect("LU storage");
        let inverse_pivots: &[[f64; L]; 24] = inverse_pivots.try_into().expect("pivots");
        let a: &mut [[f64; L]; 24] = a.try_into().expect("one entry per state");
        let b: &mut [[f64; L]; 24] = b.try_into().expect("one entry per state");
        a[11] = lanes::sub_mul(a[11], lu[9], a[10]);
        b[11] = lanes::sub_mul(b[11], lu[9], b[10]);
        a[12] = lanes::sub_mul(a[12], lu[12], a[11]);
        b[12] = lanes::sub_mul(b[12], lu[12], b[11]);
        a[13] = lanes::sub_mul(a[13], lu[15], a[12]);
        b[13] = lanes::sub_mul(b[13], lu[15], b[12]);
        a[14] = lanes::sub_mul(a[14], lu[18], a[13]);
        b[14] = lanes::sub_mul(b[14], lu[18], b[13]);
        a[15] = lanes::sub_mul(a[15], lu[21], a[14]);
        b[15] = lanes::sub_mul(b[15], lu[21], b[14]);
        a[16] = lanes::sub_mul(a[16], lu[24], a[15]);
        b[16] = lanes::sub_mul(b[16], lu[24], b[15]);
        a[1] = lanes::sub_mul(a[1], lu[29], a[16]);
        b[1] = lanes::sub_mul(b[1], lu[29], b[16]);
        a[1] = lanes::sub_mul(a[1], lu[30], a[0]);
        b[1] = lanes::sub_mul(b[1], lu[30], b[0]);
        a[19] = lanes::sub_mul(a[19], lu[37], a[20]);
        b[19] = lanes::sub_mul(b[19], lu[37], b[20]);
        a[18] = lanes::sub_mul(a[18], lu[41], a[17]);
        b[18] = lanes::sub_mul(b[18], lu[41], b[17]);
        a[8] = lanes::sub_mul(a[8], lu[55], a[7]);
        b[8] = lanes::sub_mul(b[8], lu[55], b[7]);
        a[3] = lanes::sub_mul(a[3], lu[62], a[2]);
        b[3] = lanes::sub_mul(b[3], lu[62], b[2]);
        a[3] = lanes::sub_mul(a[3], lu[63], a[1]);
        b[3] = lanes::sub_mul(b[3], lu[63], b[1]);
        a[3] = lanes::sub_mul(a[3], lu[64], a[9]);
        b[3] = lanes::sub_mul(b[3], lu[64], b[9]);
        a[3] = lanes::sub_mul(a[3], lu[65], a[8]);
        b[3] = lanes::sub_mul(b[3], lu[65], b[8]);
        a[3] = lanes::sub_mul(a[3], lu[66], a[6]);
        b[3] = lanes::sub_mul(b[3], lu[66], b[6]);
        a[5] = lanes::sub_mul(a[5], lu[69], a[4]);
        b[5] = lanes::sub_mul(b[5], lu[69], b[4]);
        a[5] = lanes::sub_mul(a[5], lu[70], a[3]);
        b[5] = lanes::sub_mul(b[5], lu[70], b[3]);
        a[23] = lanes::mul(a[23], inverse_pivots[23]);
        b[23] = lanes::mul(b[23], inverse_pivots[23]);
        a[5] = lanes::sub_mul(a[5], lu[72], a[23]);
        b[5] = lanes::sub_mul(b[5], lu[72], b[23]);
        a[5] = lanes::mul(a[5], inverse_pivots[22]);
        b[5] = lanes::mul(b[5], inverse_pivots[22]);
        a[3] = lanes::sub_mul(a[3], lu[68], a[5]);
        b[3] = lanes::sub_mul(b[3], lu[68], b[5]);
        a[3] = lanes::mul(a[3], inverse_pivots[21]);
        b[3] = lanes::mul(b[3], inverse_pivots[21]);
        a[6] = lanes::sub_mul(a[6], lu[60], a[3]);
        b[6] = lanes::sub_mul(b[6], lu[60], b[3]);
        a[6] = lanes::sub_mul(a[6], lu[61], a[5]);
        b[6] = lanes::sub_mul(b[6], lu[61], b[5]);
        a[6] = lanes::mul(a[6], inverse_pivots[20]);
        b[6] = lanes::mul(b[6], inverse_pivots[20]);
        a[8] = lanes::sub_mul(a[8], lu[57], a[6]);
        b[8] = lanes::sub_mul(b[8], lu[57], b[6]);
        a[8] = lanes::sub_mul(a[8], lu[58], a[3]);
        b[8] = lanes::sub_mul(b[8], lu[58], b[3]);
        a[8] = lanes::mul(a[8], inverse_pivots[19]);
        b[8] = lanes::mul(b[8], inverse_pivots[19]);
        a[9] = lanes::sub_mul(a[9], lu[52], a[8]);
        b[9] = lanes::sub_mul(b[9], lu[52], b[8]);
        a[9] = lanes::sub_mul(a[9], lu[53], a[3]);
        b[9] = lanes::sub_mul(b[9], lu[53], b[3]);
        a[9] = lanes::sub_mul(a[9], lu[54], a[5]);
        b[9] = lanes::sub_mul(b[9], lu[54], b[5]);
        a[9] = lanes::mul(a[9], inverse_pivots[18]);
        b[9] = lanes::mul(b[9], inverse_pivots[18]);
        a[7] = lanes::sub_mul(a[7], lu[49], a[6]);
        b[7] = lanes::sub_mul(b[7], lu[49], b[6]);
        a[7] = lanes::sub_mul(a[7], lu[50], a[3]);
        b[7] = lanes::sub_mul(b[7], lu[50], b[3]);
        a[7] = lanes::mul(a[7], inverse_pivots[17]);
        b[7] = lanes::mul(b[7], inverse_pivots[17]);
        a[4] = lanes::sub_mul(a[4], lu[46], a[3]);
        b[4] = lanes::sub_mul(b[4], lu[46], b[3]);
        a[4] = lanes::sub_mul(a[4], lu[47], a[23]);
        b[4] = lanes::sub_mul(b[4], lu[47], b[23]);
        a[4] = lanes::mul(a[4], inverse_pivots[16]);
        b[4] = lanes::mul(b[4], inverse_pivots[16]);
        a[18] = lanes::sub_mul(a[18], lu[43], a[3]);
        b[18] = lanes::sub_mul(b[18], lu[43], b[3]);
        a[18] = lanes::sub_mul(a[18], lu[44], a[23]);
        b[18] = lanes::sub_mul(b[18], lu[44], b[23]);
        a[18] = lanes::mul(a[18], inverse_pivots[15]);
        b[18] = lanes::mul(b[18], inverse_pivots[15]);
        a[19] = lanes::sub_mul(a[19], lu[39], a[18]);
        b[19] = lanes::sub_mul(b[19], lu[39], b[18]);
        a[19] = lanes::sub_mul(a[19], lu[40], a[23]);
        b[19] = lanes::sub_mul(b[19], lu[40], b[23]);
        a[19] = lanes::mul(a[19], inverse_pivots[14]);
        b[19] = lanes::mul(b[19], inverse_pivots[14]);
        a[20] = lanes::sub_mul(a[20], lu[36], a[19]);
        b[20] = lanes::sub_mul(b[20], lu[36], b[19]);
        a[20] = lanes::mul(a[20], inverse_pivots[13]);
        b[20] = lanes::mul(b[20], inverse_pivots[13]);
        a[17] = lanes::sub_mul(a[17], lu[34], a[3]);
        b[17] = lanes::sub_mul(b[17], lu[34], b[3]);
        a[17] = lanes::mul(a[17], inverse_pivots[12]);
        b[17] = lanes::mul(b[17], inverse_pivots[12]);
        a[1] = lanes::sub_mul(a[1], lu[32], a[9]);
        b[1] = lanes::sub_mul(b[1], lu[32], b[9]);
        a[1] = lanes::mul(a[1], inverse_pivots[11]);
        b[1] = lanes::mul(b[1], inverse_pivots[11]);
        a[0] = lanes::sub_mul(a[0], lu[28], a[9]);
        b[0] = lanes::sub_mul(b[0], lu[28], b[9]);
        a[0] = lanes::mul(a[0], inverse_pivots[10]);
        b[0] = lanes::mul(b[0], inverse_pivots[10]);
        a[16] = lanes::sub_mul(a[16], lu[26], a[0]);
        b[16] = lanes::sub_mul(b[16], lu[26], b[0]);
        a[16] = lanes::mul(a[16], inverse_pivots[9]);
        b[16] = lanes::mul(b[16], inverse_pivots[9]);
        a[15] = lanes::sub_mul(a[15], lu[23], a[0]);
        b[15] = lanes::sub_mul(b[15], lu[23], b[0]);
        a[15] = lanes::mul(a[15], inverse_pivots[8]);
        b[15] = lanes::mul(b[15], inverse_pivots[8]);
        a[14] = lanes::sub_mul(a[14], lu[20], a[0]);
        b[14] = lanes::sub_mul(b[14], lu[20], b[0]);
        a[14] = lanes::mul(a[14], inverse_pivots[7]);
        b[14] = lanes::mul(b[14], inverse_pivots[7]);
        a[13] = lanes::sub_mul(a[13], lu[17], a[0]);
        b[13] = lanes::sub_mul(b[13], lu[17], b[0]);
        a[13] = lanes::mul(a[13], inverse_pivots[6]);
        b[13] = lanes::mul(b[13], inverse_pivots[6]);
        a[12] = lanes::sub_mul(a[12], lu[14], a[0]);
        b[12] = lanes::sub_mul(b[12], lu[14], b[0]);
        a[12] = lanes::mul(a[12], inverse_pivots[5]);
        b[12] = lanes::mul(b[12], inverse_pivots[5]);
        a[11] = lanes::sub_mul(a[11], lu[11], a[0]);
        b[11] = lanes::sub_mul(b[11], lu[11], b[0]);
        a[11] = lanes::mul(a[11], inverse_pivots[4]);
        b[11] = lanes::mul(b[11], inverse_pivots[4]);
        a[10] = lanes::sub_mul(a[10], lu[8], a[0]);
        b[10] = lanes::sub_mul(b[10], lu[8], b[0]);
        a[10] = lanes::mul(a[10], inverse_pivots[3]);
        b[10] = lanes::mul(b[10], inverse_pivots[3]);
        a[2] = lanes::sub_mul(a[2], lu[6], a[1]);
        b[2] = lanes::sub_mul(b[2], lu[6], b[1]);
        a[2] = lanes::mul(a[2], inverse_pivots[2]);
        b[2] = lanes::mul(b[2], inverse_pivots[2]);
        a[21] = lanes::sub_mul(a[21], lu[3], a[20]);
        b[21] = lanes::sub_mul(b[21], lu[3], b[20]);
        a[21] = lanes::sub_mul(a[21], lu[4], a[19]);
        b[21] = lanes::sub_mul(b[21], lu[4], b[19]);
        a[21] = lanes::mul(a[21], inverse_pivots[1]);
        b[21] = lanes::mul(b[21], inverse_pivots[1]);
        a[22] = lanes::sub_mul(a[22], lu[1], a[21]);
        b[22] = lanes::sub_mul(b[22], lu[1], b[21]);
        a[22] = lanes::mul(a[22], inverse_pivots[0]);
        b[22] = lanes::mul(b[22], inverse_pivots[0]);
    }
}

/// The slot among the values of `S` of every diagonal entry, in pool order.
pub(crate) const DIAGONAL_SLOTS: [usize; 24] = [
    0, 3, 5, 7, 15, 18, 22, 24, 27, 30, 31, 33, 35, 37, 39, 41, 44, 45, 47, 49, 53, 55, 57, 62,
];

/// The slot among the values of `S` of every partial of the reactions, in visiting order.
pub(crate) const PARTIAL_SLOTS: [usize; 74] = [
    0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 58, 59, 17, 18, 19, 20, 7, 9, 10, 13, 21, 22, 23, 7,
    10, 11, 24, 25, 26, 27, 28, 7, 12, 13, 30, 29, 18, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41,
    42, 44, 43, 7, 14, 45, 46, 47, 48, 60, 61, 49, 50, 52, 53, 54, 49, 50, 51, 55, 56, 57, 62,
];
